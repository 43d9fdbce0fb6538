package datagen_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/relation"
)

// TestGenerateDifferential holds Generate, the Oracle and core.OracleFeedback
// to the reference scenario layer (reference_test.go) byte for byte: every
// relation row by row, the oracle's size, and the judgements, score and
// feedback over the scenario's own relations and, at two sizes, over a
// wrangled result.
func TestGenerateDifferential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 30, 60, 100, 120, 600, 1600} {
		for seed := int64(1); seed <= 10; seed++ {
			for _, nc := range noiseConfigs(n, seed) {
				t.Run(fmt.Sprintf("n=%d/seed=%d/%s", n, seed, nc.name), func(t *testing.T) {
					sc := checkScenario(t, nc.cfg)
					if nc.name == "default" && (n == 60 || n == 120) && seed <= 3 {
						checkWrangled(t, sc, nc.cfg)
					}
				})
			}
		}
	}
}

// FuzzGenerateDifferential draws a small scenario's seed, sizes and every
// rate of its Config from the fuzzer's bytes.
func FuzzGenerateDifferential(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(6), []byte{191, 166, 38, 25, 51, 13, 242, 255})
	f.Add(int64(7), uint8(0), uint8(0), []byte{})
	f.Add(int64(-3), uint8(63), uint8(1), []byte{255, 255, 255, 255, 255, 255, 255, 255})
	f.Add(int64(42), uint8(12), uint8(40), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, n, postcodes uint8, rates []byte) {
		cfg := datagen.Config{Seed: seed, NProperties: int(n % 64), NPostcodes: int(postcodes % 48)}
		if cfg.NProperties > 0 && cfg.NPostcodes == 0 {
			cfg.NPostcodes = 1
		}
		for i, p := range []*float64{
			&cfg.RightmoveCoverage, &cfg.OnTheMarketCoverage, &cfg.BedroomErrorRate, &cfg.NullRate,
			&cfg.FormatNoiseRate, &cfg.TypoRate, &cfg.DeprivationCoverage, &cfg.AddressRefCoverage,
		} {
			if i < len(rates) {
				*p = float64(rates[i]) / 255
			}
		}
		checkScenario(t, cfg)
	})
}

type noiseConfig struct {
	name string
	cfg  datagen.Config
}

// noiseConfigs are the default configuration at n and seed, and the same
// with every noise rate at 0 and at 1.
func noiseConfigs(n int, seed int64) []noiseConfig {
	def := datagen.DefaultConfig()
	def.NProperties, def.Seed = n, seed
	withRates := func(r float64) datagen.Config {
		c := def
		c.BedroomErrorRate, c.NullRate, c.FormatNoiseRate, c.TypoRate = r, r, r, r
		return c
	}
	return []noiseConfig{{"default", def}, {"rates=0", withRates(0)}, {"rates=1", withRates(1)}}
}

// checkScenario compares Generate(cfg) with the reference, and the oracle's
// answers over the scenario's relations. It returns the scenario Generate
// built.
func checkScenario(t *testing.T, cfg datagen.Config) *datagen.Scenario {
	t.Helper()
	got := datagen.Generate(cfg)
	want, oracle := datagen.GenerateReference(cfg)
	for _, r := range []struct {
		name      string
		got, want *relation.Relation
	}{
		{"truth", got.Truth, want.Truth},
		{"rightmove", got.Rightmove, want.Rightmove},
		{"onthemarket", got.OnTheMarket, want.OnTheMarket},
		{"deprivation", got.Deprivation, want.Deprivation},
		{"address", got.AddressRef, want.AddressRef},
	} {
		sameRelation(t, r.name, r.got, r.want)
	}
	if got.Oracle.Size() != oracle.Size() {
		t.Fatalf("oracle size %d, reference %d", got.Oracle.Size(), oracle.Size())
	}
	// OnTheMarket under the target's names, so the oracle scores its cells,
	// and both portals' rows together, where a property can have two.
	names := []string{"price", "street", "postcode", "bedrooms", "type", "description"}
	otm := relation.New(relation.NewSchema("onthemarket", names...))
	otm.Tuples = got.OnTheMarket.Tuples
	union := relation.New(relation.NewSchema("union", names...))
	union.Tuples = append(slices.Clone(got.Rightmove.Tuples), got.OnTheMarket.Tuples...)
	for _, res := range []*relation.Relation{got.Truth, got.Rightmove, otm, union, got.AddressRef} {
		checkOracle(t, got, oracle, res)
	}
	return got
}

// checkWrangled compares the oracles over the wrangled result after the
// bootstrap and after the data context, fused and clean.
func checkWrangled(t *testing.T, sc *datagen.Scenario, cfg datagen.Config) {
	t.Helper()
	_, oracle := datagen.GenerateReference(cfg)
	w := core.BuildScenarioWrangler(sc)
	for stage := 0; stage < 2; stage++ {
		if stage == 1 {
			w.AddDataContext(sc.AddressRef)
		}
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkOracle(t, sc, oracle, w.Result())
		checkOracle(t, sc, oracle, w.ResultClean())
	}
}

// checkOracle compares the scenario's oracle with the reference over res:
// its score, the feedback drawn at three budgets, and each row judged under
// every attribute name the oracle knows and one it does not.
func checkOracle(t *testing.T, sc *datagen.Scenario, oracle *datagen.ReferenceOracle, res *relation.Relation) {
	t.Helper()
	what := res.Schema.Name
	sameScore(t, what, sc.Oracle.ScoreResult(res), oracle.ScoreResult(res))
	for i, budget := range []int{1, 7, 40} {
		seed := sc.Config.Seed + int64(i)
		got := core.OracleFeedback(sc, res, budget, seed)
		want := oracleFeedbackReference(oracle, res, budget, seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: feedback at budget %d:\n%v\nreference:\n%v", what, budget, got, want)
		}
	}
	si, pi := res.Schema.AttrIndex("street"), res.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 {
		return
	}
	// An attribute res has is judged on its own cell, any other on a cell
	// that moves along the row.
	attrs := []string{"type", "description", "street", "city", "postcode", "bedrooms", "price", "crimerank", "ghost"}
	for r, tp := range res.Tuples {
		street, postcode := tp[si].String(), tp[pi].String()
		for k, attr := range attrs {
			v := tp[(r+k)%len(tp)]
			if ai := res.Schema.AttrIndex(attr); ai >= 0 {
				v = tp[ai]
			}
			correct, known := sc.Oracle.CellCorrect(street, postcode, attr, v)
			if known != oracle.Lookup(street, postcode) || correct != oracle.CellCorrect(street, postcode, attr, v) {
				t.Fatalf("%s: CellCorrect(%q, %q, %s, %v) = %v, %v; reference %v, %v", what, street, postcode, attr, v,
					correct, known, oracle.CellCorrect(street, postcode, attr, v), oracle.Lookup(street, postcode))
			}
		}
	}
}

func sameRelation(t *testing.T, what string, got, want *relation.Relation) {
	t.Helper()
	if got.Schema.String() != want.Schema.String() {
		t.Fatalf("%s: schema %s, reference %s", what, got.Schema, want.Schema)
	}
	if got.Cardinality() != want.Cardinality() {
		t.Fatalf("%s: %d rows, reference %d", what, got.Cardinality(), want.Cardinality())
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Same(want.Tuples[i]) {
			t.Fatalf("%s row %d: %v, reference %v", what, i, got.Tuples[i], want.Tuples[i])
		}
	}
}

// sameScore fails unless the two scores are equal field by field, floats
// by their bits.
func sameScore(t *testing.T, what string, got, want datagen.Score) {
	t.Helper()
	bits := math.Float64bits
	if got.Rows != want.Rows || bits(got.AddressablePrecision) != bits(want.AddressablePrecision) ||
		bits(got.Recall) != bits(want.Recall) || bits(got.F1) != bits(want.F1) ||
		bits(got.CellAccuracy) != bits(want.CellAccuracy) || bits(got.ValueAccuracy) != bits(want.ValueAccuracy) ||
		len(got.Completeness) != len(want.Completeness) {
		t.Fatalf("%s: score %+v, reference %+v", what, got, want)
	}
	for attr, c := range want.Completeness {
		if g, ok := got.Completeness[attr]; !ok || bits(g) != bits(c) {
			t.Fatalf("%s: completeness of %s %v, reference %v", what, attr, g, c)
		}
	}
}

// oracleFeedbackReference is core.OracleFeedback as it was: a Sprintf key
// per drawn cell, and each address resolved twice, by Lookup and again by
// CellCorrect.
func oracleFeedbackReference(oracle *datagen.ReferenceOracle, result *relation.Relation, budget int, seed int64) []feedback.Item {
	if result == nil || result.Cardinality() == 0 || budget <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	si := result.Schema.AttrIndex("street")
	pi := result.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 {
		return nil
	}
	attrs := []string{}
	for _, a := range datagen.ScoredAttributes {
		if result.Schema.AttrIndex(a) >= 0 {
			attrs = append(attrs, a)
		}
	}
	var items []feedback.Item
	seen := map[string]bool{}
	for len(items) < budget && len(seen) < result.Cardinality()*len(attrs) {
		row := rng.Intn(result.Cardinality())
		attr := attrs[rng.Intn(len(attrs))]
		key := fmt.Sprintf("%d|%s", row, attr)
		if seen[key] {
			continue
		}
		seen[key] = true
		street := result.Tuples[row][si].String()
		postcode := result.Tuples[row][pi].String()
		if !oracle.Lookup(street, postcode) {
			items = append(items, feedback.Item{Street: street, Postcode: postcode, Correct: false})
			continue
		}
		ai := result.Schema.AttrIndex(attr)
		v := result.Tuples[row][ai]
		if v.IsNull() {
			continue
		}
		items = append(items, feedback.Item{
			Street: street, Postcode: postcode, Attr: attr,
			Correct:  oracle.CellCorrect(street, postcode, attr, v),
			Observed: v, HasObserved: true,
		})
	}
	return items
}

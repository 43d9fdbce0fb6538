package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// refCellCorrect is Oracle.CellCorrect as it was before rows were resolved
// once: the truth of the cell through Lookup's map of the whole row.
func refCellCorrect(o *datagen.Oracle, street, postcode, attr string, v relation.Value) bool {
	truth, ok := o.Lookup(street, postcode)
	if !ok {
		return false
	}
	want, ok := truth[attr]
	if !ok || v.IsNull() {
		return false
	}
	switch attr {
	case "postcode":
		return datagen.CanonicalPostcode(v.String()) == want.Str()
	case "type":
		return datagen.CanonicalType(v.String()) == want.Str()
	case "price":
		f, ok := datagen.ParsePrice(v)
		return ok && f == want.FloatVal()
	case "street":
		return strings.EqualFold(strings.TrimSpace(v.String()), want.Str())
	default:
		if cv, ok := relation.Coerce(v, want.Kind()); ok {
			return cv.Equal(want)
		}
		return v.Equal(want)
	}
}

// refScoreResult is Oracle.ScoreResult as it was before rows were resolved
// once: every scored cell looked its address up again, through
// refCellCorrect. It is the reference of the per-stage score.
func refScoreResult(o *datagen.Oracle, res *relation.Relation) datagen.Score {
	s := datagen.Score{Rows: res.Cardinality(), Completeness: map[string]float64{}}
	si := res.Schema.AttrIndex("street")
	pi := res.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 || res.Cardinality() == 0 {
		return s
	}
	found := map[string]bool{}
	addressable := 0
	cellsTotal, cellsRight := 0, 0
	valueTotal, valueRight := 0, 0
	nonNull := map[string]int{}
	present := map[string]int{}
	for _, t := range res.Tuples {
		street, postcode := t[si].String(), t[pi].String()
		key := strings.ToLower(strings.TrimSpace(street)) + "|" + datagen.CanonicalPostcode(postcode)
		_, known := o.Lookup(street, postcode)
		if known {
			addressable++
			found[key] = true
		}
		for _, attr := range datagen.ScoredAttributes {
			ai := res.Schema.AttrIndex(attr)
			if ai < 0 {
				continue
			}
			present[attr]++
			if !t[ai].IsNull() {
				nonNull[attr]++
			}
			if known {
				cellsTotal++
				correct := refCellCorrect(o, street, postcode, attr, t[ai])
				if correct {
					cellsRight++
				}
				if !t[ai].IsNull() {
					valueTotal++
					if correct {
						valueRight++
					}
				}
			}
		}
	}
	s.AddressablePrecision = float64(addressable) / float64(res.Cardinality())
	s.Recall = float64(len(found)) / float64(o.Size())
	if s.AddressablePrecision+s.Recall > 0 {
		s.F1 = 2 * s.AddressablePrecision * s.Recall / (s.AddressablePrecision + s.Recall)
	}
	if cellsTotal > 0 {
		s.CellAccuracy = float64(cellsRight) / float64(cellsTotal)
	}
	if valueTotal > 0 {
		s.ValueAccuracy = float64(valueRight) / float64(valueTotal)
	}
	for attr, n := range present {
		if n > 0 {
			s.Completeness[attr] = float64(nonNull[attr]) / float64(n)
		}
	}
	return s
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

// TestScoreResultIsReference holds the score every stage reports to the
// per-cell reference over the clean result, bit for bit, over the
// pay-as-you-go stages at the benchmark's scenario sizes, whether the clean
// result or the fused one is scored.
func TestScoreResultIsReference(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{60, 100, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties = n
			cfg.Seed = seed
			sc := datagen.Generate(cfg)
			w := BuildScenarioWrangler(sc)
			check := func(stage string) {
				t.Helper()
				if _, err := w.Run(ctx); err != nil {
					t.Fatal(err)
				}
				clean, fused := w.ResultClean(), w.Result()
				sameScore(t, stage, sc.Oracle.ScoreResult(clean), refScoreResult(sc.Oracle, clean))
				// A session scores the fused result, provenance column and all.
				sameScore(t, stage+" (fused)", sc.Oracle.ScoreResult(fused), refScoreResult(sc.Oracle, clean))
			}
			check("bootstrap")
			w.AddDataContext(sc.AddressRef)
			check("data-context")
			for round := int64(0); round < 2; round++ {
				w.AddFeedback(OracleFeedback(sc, w.Result(), 40, seed+round)...)
				check("feedback")
			}
			w.SetUserContext(CrimeAnalysisUserContext())
			check("user-context")
		}
	}
}

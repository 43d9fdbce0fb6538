package cfd_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vada/internal/cfd"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/mapping"
	"vada/internal/relation"
	"vada/internal/vadalog"
)

// repairInputs wrangles a generated scenario through bootstrap and data
// context and returns what its repair transducer was handed: the unrepaired
// result of every candidate mapping (the four res_* relations, in name
// order) and the CFDs learned from the address reference.
func repairInputs(t testing.TB, n int, seed int64) (*datagen.Scenario, []*relation.Relation, []cfd.CFD) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NProperties, cfg.Seed = n, seed
	sc := datagen.Generate(cfg)
	w := core.BuildScenarioWrangler(sc)
	ctx := context.Background()
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	srcs := map[string]*relation.Relation{}
	for _, name := range w.KB.RelationNames(core.RelSourcePrefix) {
		srcs[strings.TrimPrefix(name, core.RelSourcePrefix)] = w.KB.Relation(name)
	}
	var results []*relation.Relation
	for _, m := range w.Mappings() {
		res, err := mapping.Execute(m, srcs, vadalog.NewEngine())
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if len(results) < 2 || len(w.CFDs()) == 0 {
		t.Fatalf("n=%d seed=%d: %d results, %d CFDs: nothing to repair", n, seed, len(results), len(w.CFDs()))
	}
	return sc, results, w.CFDs()
}

// sameRelation compares schemas and tuples, kinds included.
func sameRelation(a, b *relation.Relation) bool {
	if !a.Schema.Equal(b.Schema) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if a.Tuples[i].Key() != b.Tuples[i].Key() {
			return false
		}
	}
	return true
}

// sameRepair fails unless the prepared path repaired res exactly as the
// reference did: equal relation, equal action log in order, Reason strings
// included.
func sameRepair(t *testing.T, label string, res, ref *relation.Relation, cfds []cfd.CFD, b cfd.RepairBounds, prepared *cfd.Reference) (fuzzy int) {
	t.Helper()
	before := res.Clone()
	wantRel, wantLog := cfd.ReferenceRepair(res, ref, cfds, b)
	gotRel, gotLog := prepared.Repair(res)
	if !sameRelation(res, before) {
		t.Fatalf("%s: repair modified its input", label)
	}
	if !sameRelation(gotRel, wantRel) {
		t.Fatalf("%s: repaired relations differ", label)
	}
	if len(gotLog) != len(wantLog) {
		t.Fatalf("%s: %d actions, reference %d", label, len(gotLog), len(wantLog))
	}
	for i := range wantLog {
		if !reflect.DeepEqual(gotLog[i], wantLog[i]) {
			t.Fatalf("%s: action %d is %v, reference %v", label, i, gotLog[i], wantLog[i])
		}
		if strings.HasPrefix(wantLog[i].Reason, "fuzzy reference match") {
			fuzzy++
		}
	}
	return fuzzy
}

// TestRepairDifferential holds PrepareReference(...).Repair to the per-call
// code it replaced, on what the repair transducer sees: every result
// relation of a scenario through one prepared reference, in both orders, so
// that a fuzzy lookup memoised while repairing one relation answers for the
// next.
func TestRepairDifferential(t *testing.T) {
	sizes := []int{40, 100, 600}
	if testing.Short() {
		sizes = []int{40, 100}
	}
	b := cfd.ConstantRepairBounds
	fuzzy := 0
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			sc, results, cfds := repairInputs(t, n, seed)
			forward := cfd.PrepareReference(sc.AddressRef, cfds)
			for _, res := range results {
				fuzzy += sameRepair(t, fmt.Sprintf("n=%d seed=%d %s forward", n, seed, res.Schema.Name), res, sc.AddressRef, cfds, b, forward)
			}
			backward := cfd.PrepareReference(sc.AddressRef, cfds)
			for i := len(results) - 1; i >= 0; i-- {
				res := results[i]
				sameRepair(t, fmt.Sprintf("n=%d seed=%d %s backward", n, seed, res.Schema.Name), res, sc.AddressRef, cfds, b, backward)
			}
		}
	}
	if fuzzy == 0 {
		t.Fatal("no scenario snapped a typo'd street: the fuzzy path went unexercised")
	}
	t.Logf("%d fuzzy key repairs compared", fuzzy)
}

// TestRepairDifferentialEdges covers what the scenarios do not: bounds the
// transducer never repairs within, and references and results missing what
// repair looks for.
func TestRepairDifferentialEdges(t *testing.T) {
	ref := relation.New(relation.NewSchema("address", "street", "city", "postcode"))
	ref.MustAppend("1 High St", "Manchester", "M1 1AA")
	ref.MustAppend("1 high st", "Manchester", "M1 1AA") // second spelling of one key
	ref.MustAppend("2 Park Rd", "Salford", "M5 2BB")
	ref.MustAppend("2 Dark Rd", "Salford", "M5 2BB")
	ref.MustAppend(nil, "Leeds", "LS1 1AA")
	ref.MustAppend("3 Żółć Way", "Leeds", nil)

	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 HIGH ST", nil, "m1 1aa")
	res.MustAppend("1 Hgih St", "Leeds", "M1 1AA")
	res.MustAppend("2 Bark Rd", nil, "M5 2BB") // equidistant: a tie
	res.MustAppend("2 Bark Rd", "salford", "M5 2BB")
	res.MustAppend("3 Zółć Way", nil, nil)
	res.MustAppend(nil, nil, "LS1 1AA")
	res.MustAppend("", "Manchester", "M1 1AA")
	noKey := relation.New(relation.NewSchema("nokey", "city", "postcode"))
	noKey.MustAppend(nil, "M1 1AA")
	noKey.MustAppend("MANCHESTER", "M1 1AA")

	anyCell := cfd.PatternCell{Any: true}
	cfds := []cfd.CFD{
		{LHS: []string{"postcode"}, RHS: "city", Pattern: map[string]cfd.PatternCell{"postcode": anyCell, "city": anyCell}},
		{LHS: []string{"city", "street"}, RHS: "postcode", Pattern: map[string]cfd.PatternCell{"city": anyCell, "street": anyCell, "postcode": anyCell}},
		{LHS: []string{"postcode"}, RHS: "county", Pattern: map[string]cfd.PatternCell{"postcode": anyCell, "county": anyCell}},
		{LHS: []string{"postcode"}, RHS: "city", Pattern: map[string]cfd.PatternCell{
			"postcode": {Value: relation.String("LS1 1AA")}, "city": {Value: relation.String("Leeds")}}},
	}
	bounds := map[string]cfd.RepairBounds{
		"constants":     cfd.ConstantRepairBounds,
		"no fuzzy":      {KeyAttr: "street", RefKeyAttr: "street"},
		"distance 1":    {KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 1},
		"distance 3":    {KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 3},
		"no ref key":    {KeyAttr: "street", RefKeyAttr: "road", MaxEditDistance: 2},
		"no result key": {KeyAttr: "road", RefKeyAttr: "street", MaxEditDistance: 2},
	}
	for name, b := range bounds {
		prepared := cfd.PrepareReferenceWithin(ref, cfds, b)
		for _, r := range []*relation.Relation{res, noKey, res, relation.New(res.Schema)} {
			sameRepair(t, name+" "+r.Schema.Name, r, ref, cfds, b, prepared)
		}
	}
}

// TestRepairLHSIsNotAJoinedString pins that a result row matches a reference
// group on an LHS of two attributes only when both values do. LHS values were
// once joined into one string with a separator byte, and the reference's
// ("a\x1fb", "c") and the result's ("a", "b\x1fc") joined alike: the result's
// postcode was "corrected" from a group it is not in.
func TestRepairLHSIsNotAJoinedString(t *testing.T) {
	ref := relation.New(relation.NewSchema("address", "street", "city", "postcode"))
	ref.MustAppend("c", "a\x1fb", "P1")
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("b\x1fc", "a", "P2")
	anyCell := cfd.PatternCell{Any: true}
	cfds := []cfd.CFD{{LHS: []string{"city", "street"}, RHS: "postcode",
		Pattern: map[string]cfd.PatternCell{"city": anyCell, "street": anyCell, "postcode": anyCell}}}
	b := cfd.RepairBounds{KeyAttr: "street", RefKeyAttr: "street"}
	prepared := cfd.PrepareReferenceWithin(ref, cfds, b)
	repaired, log := prepared.Repair(res)
	if len(log) != 0 || repaired.Tuples[0][2].Str() != "P2" {
		t.Fatalf("repaired to %v with %v: the row is in no reference group", repaired.Tuples[0], log)
	}
	sameRepair(t, "joined-string lookalike", res, ref, cfds, b, prepared)
}

// fuzzRepairInputs draws a reference, results and CFDs from a seed: few
// distinct streets, cities and postcodes, so that groups form and collide,
// spelled with case and space variants, typos one to three edits away,
// non-ASCII letters, the byte LHS values were once joined with, empty
// strings, nulls and numbers.
func fuzzRepairInputs(seed int64, refRows, resRows, nRes, nCFDs uint8) (*relation.Relation, []*relation.Relation, []cfd.CFD) {
	rng := rand.New(rand.NewSource(seed))
	streets := []string{"1 High St", "2 Park Rd", "2 Dark Rd", "3 Żółć Way", "4 Oak Ln", "a\x1fb", "", "12"}
	cities := []string{"Manchester", "Salford", "Leeds", "b", "", "Łódź"}
	postcodes := []string{"M1 1AA", "M5 2BB", "LS1 1AA", "c", "7"}
	spell := func(s string) any {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1:
			return strings.ToUpper(s)
		case 2:
			return "  " + strings.ToLower(s) + " "
		case 3:
			if s == "12" || s == "7" {
				return rng.Intn(2) + 6*len(s) // an int that may spell the string
			}
		case 4:
			b := []byte(s)
			for n := 1 + rng.Intn(3); n > 0; n-- { // a typo of one to three edits
				switch i := rng.Intn(len(b) + 1); {
				case i == len(b) || rng.Intn(3) == 0:
					b = append(b[:i:i], append([]byte{byte('a' + rng.Intn(26))}, b[i:]...)...)
				case rng.Intn(2) == 0:
					b[i] = byte('a' + rng.Intn(26))
				default:
					b = append(b[:i:i], b[i+1:]...)
				}
			}
			return string(b)
		}
		return s
	}
	pick := func(vals []string) any { return spell(vals[rng.Intn(len(vals))]) }
	schemas := [][]string{{"street", "city", "postcode"}, {"postcode", "street", "city", "county"}, {"city", "postcode"}}
	build := func(name string, attrs []string, rows int) *relation.Relation {
		r := relation.New(relation.NewSchema(name, attrs...))
		for ; rows > 0; rows-- {
			row := make([]any, len(attrs))
			for i, a := range attrs {
				switch a {
				case "street":
					row[i] = pick(streets)
				case "city":
					row[i] = pick(cities)
				default:
					row[i] = pick(postcodes)
				}
			}
			r.MustAppend(row...)
		}
		return r
	}
	ref := build("address", []string{"street", "city", "postcode", "county"}, int(refRows%40))
	var results []*relation.Relation
	for i := 0; i < 1+int(nRes%4); i++ {
		results = append(results, build(fmt.Sprintf("res%d", i), schemas[rng.Intn(len(schemas))], int(resRows%40)))
	}
	attrs := []string{"street", "city", "postcode", "county"}
	var cfds []cfd.CFD
	for i := 0; i < int(nCFDs%6); i++ {
		perm := rng.Perm(len(attrs))
		lhs := []string{attrs[perm[0]]}
		if rng.Intn(2) == 0 {
			lhs = append(lhs, attrs[perm[1]])
		}
		rhs := attrs[perm[2]]
		c := cfd.CFD{LHS: lhs, RHS: rhs, Pattern: map[string]cfd.PatternCell{}}
		constant := rng.Intn(4) == 0 && len(ref.Tuples) > 0
		row := ref.Tuples[0:0]
		if constant {
			row = ref.Tuples[rng.Intn(len(ref.Tuples)):][:1]
		}
		for _, a := range append(slices.Clone(lhs), rhs) {
			c.Pattern[a] = cfd.PatternCell{Any: true}
			if constant {
				c.Pattern[a] = cfd.PatternCell{Value: row[0][ref.Schema.AttrIndex(a)]}
			}
		}
		cfds = append(cfds, c)
	}
	return ref, results, cfds
}

// FuzzRepairDifferential holds PrepareReference(...).Repair to the per-call
// reference on random references, results and CFDs: several results through
// one prepared reference, forwards and backwards, so that lookups memoised
// for one result answer for the next, under every edit bound up to three.
func FuzzRepairDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(10), uint8(2), uint8(3), uint8(2))
	f.Add(int64(2), uint8(39), uint8(39), uint8(3), uint8(5), uint8(1))
	f.Add(int64(3), uint8(0), uint8(5), uint8(1), uint8(2), uint8(3))
	f.Add(int64(4), uint8(12), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, refRows, resRows, nRes, nCFDs, bound uint8) {
		ref, results, cfds := fuzzRepairInputs(seed, refRows, resRows, nRes, nCFDs)
		b := cfd.RepairBounds{KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: int(bound % 4)}
		forward := cfd.PrepareReferenceWithin(ref, cfds, b)
		for _, res := range results {
			sameRepair(t, res.Schema.Name+" forward", res, ref, cfds, b, forward)
		}
		backward := cfd.PrepareReferenceWithin(ref, cfds, b)
		for i := len(results) - 1; i >= 0; i-- {
			sameRepair(t, results[i].Schema.Name+" backward", results[i], ref, cfds, b, backward)
		}
	})
}

package cfd_test

import (
	"context"
	"fmt"
	"reflect"
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
func sameRepair(t *testing.T, label string, res, ref *relation.Relation, cfds []cfd.CFD, opts cfd.RepairOptions, prepared *cfd.Reference) (fuzzy int) {
	t.Helper()
	before := res.Clone()
	wantRel, wantLog := cfd.ReferenceRepair(res, ref, cfds, opts)
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
	opts := cfd.DefaultRepairOptions()
	fuzzy := 0
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			sc, results, cfds := repairInputs(t, n, seed)
			forward := cfd.PrepareReference(sc.AddressRef, cfds, opts)
			for _, res := range results {
				fuzzy += sameRepair(t, fmt.Sprintf("n=%d seed=%d %s forward", n, seed, res.Schema.Name), res, sc.AddressRef, cfds, opts, forward)
			}
			backward := cfd.PrepareReference(sc.AddressRef, cfds, opts)
			for i := len(results) - 1; i >= 0; i-- {
				res := results[i]
				sameRepair(t, fmt.Sprintf("n=%d seed=%d %s backward", n, seed, res.Schema.Name), res, sc.AddressRef, cfds, opts, backward)
			}
		}
	}
	if fuzzy == 0 {
		t.Fatal("no scenario snapped a typo'd street: the fuzzy path went unexercised")
	}
	t.Logf("%d fuzzy key repairs compared", fuzzy)
}

// TestRepairDifferentialEdges covers what the scenarios do not: options the
// transducer never sets and references and results missing what repair
// looks for.
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
	upper := func(s string) string { return strings.ToUpper(strings.Join(strings.Fields(s), "")) }
	options := map[string]cfd.RepairOptions{
		"default":        cfd.DefaultRepairOptions(),
		"no fuzzy":       {KeyAttr: "street", RefKeyAttr: "street"},
		"distance 1":     {KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 1},
		"distance 3":     {KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 3},
		"own normaliser": {KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 2, Normalize: upper},
		"no ref key":     {KeyAttr: "street", RefKeyAttr: "road", MaxEditDistance: 2},
		"no result key":  {KeyAttr: "road", RefKeyAttr: "street", MaxEditDistance: 2},
	}
	for name, opts := range options {
		prepared := cfd.PrepareReference(ref, cfds, opts)
		for _, r := range []*relation.Relation{res, noKey, res, relation.New(res.Schema)} {
			sameRepair(t, name+" "+r.Schema.Name, r, ref, cfds, opts, prepared)
		}
	}
}

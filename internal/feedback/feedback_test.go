package feedback

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"vada/internal/match"
	"vada/internal/relation"
)

// cell is the value of the named attribute in a row.
func cell(r *relation.Relation, row int, attr string) relation.Value {
	return r.Tuples[row][r.Schema.AttrIndex(attr)]
}

func resultFixture() *relation.Relation {
	r := relation.New(relation.NewSchema("target",
		"street", "postcode", "bedrooms:int", "price:float", "_src"))
	r.MustAppend("1 High St", "M1 1AA", 3, 250000.0, "rightmove")
	r.MustAppend("2 Low Rd", "M1 1AB", 14, 180000.0, "rightmove") // bad beds
	r.MustAppend("3 Mid Ln", "M2 2BB", 2, 210000.0, "onthemarket")
	r.MustAppend("4 Oak Av", "M2 2BC", 22, 330000.0, "onthemarket") // bad beds
	r.MustAppend("5 Elm Dr", "M3 3CC", 4, 410000.0, "rightmove+deprivation")
	return r
}

// TestItemRowRoundTrip: an item is a row of RelItems and comes back from it
// — through the JSON the knowledge base is persisted as — exactly as it went
// in: a value of every kind as the correction and the observation, null with
// and without its flag, and an item equal to an earlier one as a row of its own.
func TestItemRowRoundTrip(t *testing.T) {
	values := []relation.Value{
		relation.Null(), relation.String(""), relation.String("14 sq m"), relation.Int(0), relation.Int(-7),
		relation.Float(0), relation.Float(14), relation.Float(0.1 + 0.2), relation.Bool(false), relation.Bool(true),
	}
	kinds := map[relation.Kind]bool{}
	var items []Item
	for i, v := range values {
		kinds[v.Kind()] = true
		other := values[(i+3)%len(values)]
		items = append(items,
			Item{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Corrected: v, HasCorrection: true, Observed: other, HasObserved: true},
			Item{Street: "2 Low Rd", Attr: "price", Correct: true, Observed: v, HasObserved: true},
			Item{Postcode: "M2 2BB", Corrected: v, HasCorrection: i%2 == 0, Observed: other, HasObserved: i%2 == 1})
	}
	for k := relation.KindNull; k <= relation.KindBool; k++ {
		if !kinds[k] {
			t.Fatalf("no value of kind %v in the fixture", k)
		}
	}
	items = append(items, Item{}, items[0], items[0])

	first := AppendItems(nil, items[:5]...)
	rel := AppendItems(first, items[5:]...)
	if len(first.Tuples) != 5 || len(rel.Tuples) != len(items) {
		t.Fatalf("%d and %d rows for 5 and %d items: appending must leave the old relation alone and keep duplicates", len(first.Tuples), len(rel.Tuples), len(items))
	}
	if !reflect.DeepEqual(Items(rel), items) {
		t.Fatalf("decoded items differ:\n%v\n%v", Items(rel), items)
	}
	data, err := json.Marshal(rel)
	if err != nil {
		t.Fatal(err)
	}
	var back relation.Relation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Schema.Equal(rel.Schema) || !reflect.DeepEqual(Items(&back), items) {
		t.Fatalf("items differ after a JSON round trip:\n%v\n%v", Items(&back), items)
	}
	again, err := json.Marshal(AppendItems(&back))
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoding the decoded relation changed its bytes (%v)", err)
	}

	if Items(nil) != nil {
		t.Error("no relation, no items")
	}
	foreign := relation.New(relation.NewSchema(RelItems, "street", "note"))
	foreign.MustAppend("1 High St", "not ours")
	if got := Items(foreign); len(got) != 0 {
		t.Errorf("decoded %v from a relation of another shape", got)
	}
	if got := AppendItems(foreign, items[0]); len(got.Tuples) != 1 || !got.Schema.Equal(rel.Schema) || len(foreign.Tuples) != 1 {
		t.Errorf("appending to a relation of another shape gave %v", got)
	}
}

func TestApplyCorrections(t *testing.T) {
	res := resultFixture()
	items := []Item{
		{Street: "2 Low Rd", Postcode: "M1 1AB", Attr: "bedrooms", Correct: false,
			Corrected: relation.Int(2), HasCorrection: true},
		{Street: "4 Oak Av", Postcode: "M2 2BC", Attr: "bedrooms", Correct: false}, // null it
		{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Correct: true}, // no-op
	}
	patched, changed := Apply(res, IndexKeys(res), items)
	if changed != 2 {
		t.Fatalf("changed = %d, want 2", changed)
	}
	v := cell(patched, 1, "bedrooms")
	if !v.Equal(relation.Int(2)) {
		t.Fatalf("correction not applied: %v", v)
	}
	v = cell(patched, 3, "bedrooms")
	if !v.IsNull() {
		t.Fatalf("incorrect-without-fix should null: %v", v)
	}
	// Original untouched.
	v = cell(res, 1, "bedrooms")
	if v.IntVal() != 14 {
		t.Fatal("input mutated")
	}
}

func TestApplyKeyNormalisation(t *testing.T) {
	res := resultFixture()
	items := []Item{{Street: "  2 LOW RD ", Postcode: "m11ab", Attr: "bedrooms",
		Correct: false, Corrected: relation.Int(2), HasCorrection: true}}
	patched, changed := Apply(res, IndexKeys(res), items)
	if changed != 1 {
		t.Fatalf("case/space-noisy key should still match: changed=%d", changed)
	}
	v := cell(patched, 1, "bedrooms")
	if !v.Equal(relation.Int(2)) {
		t.Fatal("not applied")
	}
}

// TestKeyPartsDoNotCollide: a row's key is its street and its postcode apart.
// Joined by "|" into one string, ("1 High St|M1", "1AA") and ("1 High St",
// "M1|1AA") shared a key, and a correction of one row rewrote both.
func TestKeyPartsDoNotCollide(t *testing.T) {
	res := relation.New(relation.NewSchema("target", "street", "postcode", "bedrooms:int"))
	res.MustAppend("1 High St|M1", "1AA", 3)
	res.MustAppend("1 High St", "M1|1AA", 3)
	items := []Item{{Street: "1 High St", Postcode: "M1|1AA", Attr: "bedrooms",
		Correct: false, Corrected: relation.Int(4), HasCorrection: true}}
	patched, changed := Apply(res, IndexKeys(res), items)
	if changed != 1 {
		t.Fatalf("one correction of one row changed %d cells", changed)
	}
	if got := cell(patched, 0, "bedrooms"); !got.Equal(relation.Int(3)) {
		t.Fatalf("the row the correction does not name was rewritten to %v", got)
	}
	if got := cell(patched, 1, "bedrooms"); !got.Equal(relation.Int(4)) {
		t.Fatalf("the corrected row holds %v, want 4", got)
	}
}

func TestAccuracyByAttr(t *testing.T) {
	items := []Item{
		{Attr: "bedrooms", Correct: true},
		{Attr: "bedrooms", Correct: false},
		{Attr: "bedrooms", Correct: false},
		{Attr: "price", Correct: true},
		{Correct: false}, // tuple-level: ignored
	}
	acc := AccuracyByAttr(items)
	if math.Abs(acc["bedrooms"]-1.0/3) > 1e-9 {
		t.Fatalf("bedrooms accuracy = %v", acc["bedrooms"])
	}
	if acc["price"] != 1 {
		t.Fatalf("price accuracy = %v", acc["price"])
	}
	if _, ok := acc["street"]; ok {
		t.Fatal("no feedback → no estimate")
	}
}

func TestAccuracyBySourceLocalisesBlame(t *testing.T) {
	res := resultFixture()
	items := []Item{
		{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Correct: true},
		{Street: "2 Low Rd", Postcode: "M1 1AB", Attr: "bedrooms", Correct: false},
		{Street: "3 Mid Ln", Postcode: "M2 2BB", Attr: "bedrooms", Correct: true},
		{Street: "5 Elm Dr", Postcode: "M3 3CC", Attr: "bedrooms", Correct: true}, // joined prov
	}
	acc := AccuracyBySource(items, res, "_src")
	if math.Abs(acc["rightmove"]["bedrooms"]-2.0/3) > 1e-9 {
		t.Fatalf("rightmove bedrooms = %v (want 2/3, incl. joined provenance)", acc["rightmove"]["bedrooms"])
	}
	if acc["onthemarket"]["bedrooms"] != 1 {
		t.Fatalf("onthemarket bedrooms = %v", acc["onthemarket"]["bedrooms"])
	}
	if AccuracyBySource(items, res, "missing_col") != nil {
		t.Fatal("missing provenance column → nil")
	}
}

func TestLearnRangeRulesCatchesBedroomError(t *testing.T) {
	res := resultFixture()
	items := []Item{
		{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Correct: true}, // 3
		{Street: "3 Mid Ln", Postcode: "M2 2BB", Attr: "bedrooms", Correct: true},  // 2
		{Street: "5 Elm Dr", Postcode: "M3 3CC", Attr: "bedrooms", Correct: true},  // 4
		{Street: "2 Low Rd", Postcode: "M1 1AB", Attr: "bedrooms", Correct: false}, // 14
		{Street: "1 High St", Postcode: "M1 1AA", Attr: "price", Correct: true},    // no bad price
	}
	rules := LearnRangeRules(items, res)
	if len(rules) != 1 {
		t.Fatalf("rules = %v (want only bedrooms: price has no caught error)", rules)
	}
	r := rules[0]
	if r.Attr != "bedrooms" || r.Max != 4 || r.Support != 3 {
		t.Fatalf("rule = %+v", r)
	}
	// The error was above the confirmed span, so only the upper bound is
	// constrained; the lower side stays open.
	if r.Min != -math.MaxFloat64 {
		t.Fatalf("lower bound should be open: %+v", r)
	}
}

func TestLearnRangeRulesFromObservedValues(t *testing.T) {
	// Observed values decouple learning from the evolving result: even when
	// the result no longer holds the judged values, rules still emerge.
	empty := relation.New(relation.NewSchema("target", "street", "postcode", "bedrooms:int"))
	items := []Item{
		{Street: "a", Postcode: "p", Attr: "bedrooms", Correct: true, Observed: relation.Int(2), HasObserved: true},
		{Street: "b", Postcode: "p", Attr: "bedrooms", Correct: true, Observed: relation.Int(3), HasObserved: true},
		{Street: "c", Postcode: "p", Attr: "bedrooms", Correct: true, Observed: relation.Int(4), HasObserved: true},
		{Street: "d", Postcode: "p", Attr: "bedrooms", Correct: false, Observed: relation.Int(17), HasObserved: true},
	}
	rules := LearnRangeRules(items, empty)
	if len(rules) != 1 || rules[0].Max != 4 {
		t.Fatalf("rules = %v", rules)
	}
}

func TestLearnRangeRulesNeedsSupport(t *testing.T) {
	res := resultFixture()
	items := []Item{
		{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Correct: true},
		{Street: "2 Low Rd", Postcode: "M1 1AB", Attr: "bedrooms", Correct: false},
	}
	if rules := LearnRangeRules(items, res); len(rules) != 0 {
		t.Fatalf("insufficient support should learn nothing: %v", rules)
	}
}

func TestApplyRangeRules(t *testing.T) {
	res := resultFixture()
	rules := []RangeRule{{Attr: "bedrooms", Min: 1, Max: 5, Support: 3}}
	patched, suppressed := ApplyRangeRules(res, rules)
	if suppressed != 2 {
		t.Fatalf("suppressed = %d, want 2 (rows with 14 and 22)", suppressed)
	}
	v := cell(patched, 1, "bedrooms")
	if !v.IsNull() {
		t.Fatal("14 bedrooms should be suppressed")
	}
	v = cell(patched, 0, "bedrooms")
	if v.IntVal() != 3 {
		t.Fatal("in-range value must survive")
	}
	// Unknown attribute rules are no-ops.
	_, s := ApplyRangeRules(res, []RangeRule{{Attr: "ghost", Min: 0, Max: 1}})
	if s != 0 {
		t.Fatal("unknown attr should suppress nothing")
	}
}

func TestReviseMatchScores(t *testing.T) {
	ms := []match.Match{
		{SourceRel: "rightmove", SourceAttr: "bedrooms", TargetAttr: "bedrooms", Score: 1.0, Method: "name"},
		{SourceRel: "rightmove", SourceAttr: "price", TargetAttr: "price", Score: 0.9, Method: "name"},
		{SourceRel: "onthemarket", SourceAttr: "num_beds", TargetAttr: "bedrooms", Score: 0.8, Method: "name"},
	}
	acc := map[string]map[string]float64{"rightmove": {"bedrooms": 0.5}}
	revised := ReviseMatchScores(ms, acc)
	if revised[0].Score != 0.5 || revised[0].Method != "name+feedback" {
		t.Fatalf("revision wrong: %+v", revised[0])
	}
	if revised[1].Score != 0.9 || revised[2].Score != 0.8 {
		t.Fatal("unrelated matches must be untouched")
	}
	// Input unchanged.
	if ms[0].Score != 1.0 {
		t.Fatal("input mutated")
	}
}

func TestTrustFromAccuracy(t *testing.T) {
	acc := map[string]map[string]float64{
		"rightmove":   {"bedrooms": 0.5, "price": 1.0},
		"onthemarket": {"bedrooms": 1.0},
	}
	trust := TrustFromAccuracy(acc)
	if math.Abs(trust["rightmove"]-0.75) > 1e-9 || trust["onthemarket"] != 1 {
		t.Fatalf("trust = %v", trust)
	}
}

// TestTrustFromAccuracyDeterministic: a source's trust is the same float on
// every call. Summed in map-iteration order, these seven accuracies gave two
// values one ulp apart, and a trust-weighted fusion tie could go either way.
func TestTrustFromAccuracyDeterministic(t *testing.T) {
	acc := map[string]map[string]float64{"rightmove": {
		"bedrooms": 0.9166666666666666, "price": 0.3333333333333333, "type": 0.7142857142857143,
		"street": 0.8181818181818182, "postcode": 0.1, "crimerank": 0.7, "description": 0.7709090909090909,
	}}
	first := TrustFromAccuracy(acc)["rightmove"]
	for i := 0; i < 500; i++ {
		if got := TrustFromAccuracy(acc)["rightmove"]; got != first {
			t.Fatalf("call %d: trust %v, first call gave %v", i, got, first)
		}
	}
}

func TestItemString(t *testing.T) {
	it := Item{Street: "1 A", Postcode: "M1", Attr: "bedrooms", Correct: false,
		Corrected: relation.Int(2), HasCorrection: true}
	if s := it.String(); s == "" {
		t.Fatal("empty render")
	}
	tupleLevel := Item{Street: "1 A", Postcode: "M1", Correct: true}
	if s := tupleLevel.String(); s == "" {
		t.Fatal("empty render")
	}
}

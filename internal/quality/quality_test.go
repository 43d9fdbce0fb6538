package quality

import (
	"math"
	"testing"

	"vada/internal/cfd"
	"vada/internal/mcda"
	"vada/internal/relation"
)

func sample() *relation.Relation {
	r := relation.New(relation.NewSchema("res", "street", "postcode", "crimerank:int"))
	r.MustAppend("1 A St", "M1 1AA", 10)
	r.MustAppend("2 B St", nil, 20)
	r.MustAppend("3 C St", "M2 2BB", nil)
	r.MustAppend(nil, "M3 3CC", 40)
	return r
}

func TestCompleteness(t *testing.T) {
	r := sample()
	c, err := Completeness(r, "postcode")
	if err != nil || math.Abs(c-0.75) > 1e-12 {
		t.Fatalf("completeness(postcode) = %v, %v", c, err)
	}
	if _, err := Completeness(r, "ghost"); err == nil {
		t.Fatal("unknown attribute should fail")
	}
	empty := relation.New(r.Schema)
	c, _ = Completeness(empty, "postcode")
	if c != 0 {
		t.Fatalf("empty relation completeness = %v", c)
	}
}

func TestCompletenessAllAndDensity(t *testing.T) {
	r := sample()
	all := CompletenessAll(r)
	if len(all) != 3 {
		t.Fatalf("len = %d", len(all))
	}
	if all["street"] != 0.75 || all["crimerank"] != 0.75 {
		t.Fatalf("all = %v", all)
	}
	// 9 of 12 cells non-null.
	if d := Density(r); math.Abs(d-0.75) > 1e-12 {
		t.Fatalf("density = %v", d)
	}
	if Density(relation.New(r.Schema)) != 0 {
		t.Fatal("empty density = 0")
	}
}

func TestConsistencyRequiresCFDs(t *testing.T) {
	r := relation.New(relation.NewSchema("res", "postcode", "city"))
	r.MustAppend("M1 1AA", "Manchester")
	r.MustAppend("M1 1AA", "Leeds")
	// No CFDs: no evidence, consistency 1 (the paper's point about needing
	// data context).
	if Consistency(r, nil) != 1 {
		t.Fatal("no CFDs should yield 1")
	}
	p := map[string]cfd.PatternCell{"postcode": {Any: true}, "city": {Any: true}}
	fd := cfd.CFD{LHS: []string{"postcode"}, RHS: "city", Pattern: p}
	if c := Consistency(r, []cfd.CFD{fd}); c != 0 {
		t.Fatalf("both tuples violate: consistency = %v", c)
	}
}

func TestAssessAndCriteria(t *testing.T) {
	r := sample()
	rep := Assess(r, nil, map[string]float64{"bedrooms": 0.9})
	if rep.Relation != "res" || rep.Rows != 4 {
		t.Fatalf("report = %+v", rep)
	}
	crits := rep.Criteria()
	if v := crits[mcda.Criterion{Metric: "completeness", Target: "postcode"}]; v != 0.75 {
		t.Fatalf("criteria completeness = %v", v)
	}
	if v := crits[mcda.Criterion{Metric: "consistency", Target: "res"}]; v != 1 {
		t.Fatalf("criteria consistency = %v", v)
	}
	if v := crits[mcda.Criterion{Metric: "accuracy", Target: "res.bedrooms"}]; v != 0.9 {
		t.Fatalf("criteria accuracy qualified = %v", v)
	}
	if v := crits[mcda.Criterion{Metric: "accuracy", Target: "bedrooms"}]; v != 0.9 {
		t.Fatalf("criteria accuracy unqualified = %v", v)
	}
}

// TestEmptyAndNilRelationGuards pins the advisor-facing convention: on blank
// sessions (nil result) and freshly-ingested empty relations the metrics are
// exact constants — density 0.0, consistency 1.0 — never NaN.
func TestEmptyAndNilRelationGuards(t *testing.T) {
	someCFDs := []cfd.CFD{{LHS: []string{"postcode"}, RHS: "crimerank"}}
	empty := relation.New(relation.NewSchema("res", "street", "postcode"))
	for name, rel := range map[string]*relation.Relation{"nil": nil, "empty": empty} {
		if d := Density(rel); d != 0.0 {
			t.Fatalf("Density(%s) = %v, want exactly 0.0", name, d)
		}
		if c := Consistency(rel, nil); c != 1.0 {
			t.Fatalf("Consistency(%s, no CFDs) = %v, want exactly 1.0", name, c)
		}
		if c := Consistency(rel, someCFDs); c != 1.0 {
			t.Fatalf("Consistency(%s, CFDs) = %v, want exactly 1.0", name, c)
		}
		if math.IsNaN(Density(rel)) || math.IsNaN(Consistency(rel, someCFDs)) {
			t.Fatalf("NaN leaked for %s relation", name)
		}
	}
	if m := CompletenessAll(nil); len(m) != 0 || m == nil {
		t.Fatalf("CompletenessAll(nil) = %v, want empty non-nil map", m)
	}
	rep := Assess(nil, someCFDs, nil)
	if rep.Rows != 0 || rep.Density != 0.0 || rep.Consistency != 1.0 || len(rep.Completeness) != 0 {
		t.Fatalf("Assess(nil) = %+v", rep)
	}
}

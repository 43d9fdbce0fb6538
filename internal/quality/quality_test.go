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

// TestCompletenessDifferential holds the one-pass CompletenessAll, and the
// Completeness and Assess that sit on the same counting, to the column-copy
// code it replaced, bit for bit: empty, all-null and mixed relations, a column
// of thirds, a schema without attributes.
func TestCompletenessDifferential(t *testing.T) {
	thirds := relation.New(relation.NewSchema("thirds", "a", "b:int", "c:float"))
	for i := 0; i < 7; i++ {
		row := []any{nil, nil, nil}
		if i%3 == 0 {
			row[0] = "x"
		}
		if i%3 != 1 {
			row[1] = i
		}
		thirds.MustAppend(row...)
	}
	nulls := relation.New(sample().Schema)
	nulls.MustAppend(nil, nil, nil)
	nulls.MustAppend(nil, nil, nil)
	for name, rel := range map[string]*relation.Relation{
		"nil": nil, "empty": relation.New(sample().Schema), "all-null": nulls, "mixed": sample(), "thirds": thirds,
		"no attributes": relation.New(relation.Schema{Name: "bare"}),
	} {
		want, got := refCompletenessAll(rel), CompletenessAll(rel)
		assessed := Assess(rel, nil, nil).Completeness
		if got == nil || len(got) != len(want) || len(assessed) != len(want) {
			t.Fatalf("%s: completeness of %d attributes (%d assessed), the reference has %d", name, len(got), len(assessed), len(want))
		}
		for attr, w := range want {
			one, err := Completeness(rel, attr)
			for how, g := range map[string]float64{"CompletenessAll": got[attr], "Assess": assessed[attr], "Completeness": one} {
				if err != nil || math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s.%s: %s gives %v (%v), the reference %v", name, attr, how, g, err, w)
				}
			}
		}
	}
}

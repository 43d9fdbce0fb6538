package cfd

import (
	"math/bits"
	"slices"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// cell is the value of the named attribute in a row.
func cell(r *relation.Relation, row int, attr string) relation.Value {
	return r.Tuples[row][r.Schema.AttrIndex(attr)]
}

// refAddresses builds a small clean reference table where postcode → city
// holds exactly and (street, postcode) is a key.
func refAddresses() *relation.Relation {
	r := relation.New(relation.NewSchema("address", "street", "city", "postcode"))
	r.MustAppend("1 High St", "Manchester", "M1 1AA")
	r.MustAppend("2 High St", "Manchester", "M1 1AA")
	r.MustAppend("3 Low Rd", "Manchester", "M1 1AB")
	r.MustAppend("4 Mill Ln", "Salford", "M5 3CC")
	r.MustAppend("5 Mill Ln", "Salford", "M5 3CC")
	r.MustAppend("6 Park Ave", "Stockport", "SK1 2DD")
	return r
}

func TestMineFindsPostcodeCity(t *testing.T) {
	cfds := Mine(refAddresses())
	var found *CFD
	for i, c := range cfds {
		if len(c.LHS) == 1 && c.LHS[0] == "postcode" && c.RHS == "city" && !c.IsConstant() {
			found = &cfds[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("postcode → city not mined; got %v", cfds)
	}
	if found.Confidence != 1 || found.Support != 1 {
		t.Fatalf("postcode → city stats wrong: %v", found)
	}
}

func TestMinePruningSupersets(t *testing.T) {
	cfds := Mine(refAddresses())
	for _, c := range cfds {
		if c.IsConstant() {
			continue
		}
		if len(c.LHS) == 2 && slices.Contains(c.LHS, "postcode") && c.RHS == "city" {
			t.Fatalf("superset of exact FD postcode→city should be pruned: %v", c)
		}
	}
}

func TestMineConstantCFDs(t *testing.T) {
	b := defaultMineBounds
	b.minConstantSupport = 2
	cfds := mine(refAddresses(), b)
	found := false
	for _, c := range cfds {
		if c.IsConstant() && c.RHS == "city" && len(c.LHS) == 1 && c.LHS[0] == "postcode" {
			if c.Pattern["postcode"].Value.Str() == "M1 1AA" && c.Pattern["city"].Value.Str() == "Manchester" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("constant CFD (postcode=M1 1AA ⇒ city=Manchester) not mined")
	}
}

func TestMineRespectsConfidenceThreshold(t *testing.T) {
	r := refAddresses()
	// Break postcode → city once: 1 of 7 tuples violating → conf ≈ 0.857.
	r.MustAppend("9 Odd St", "Leeds", "M1 1AA")
	b := defaultMineBounds
	b.minConfidence = 0.99
	for _, c := range mine(r, b) {
		if !c.IsConstant() && c.LHS[0] == "postcode" && len(c.LHS) == 1 && c.RHS == "city" {
			t.Fatalf("low-confidence FD should be dropped: %v", c)
		}
	}
	b.minConfidence = 0.8
	ok := false
	for _, c := range mine(r, b) {
		if !c.IsConstant() && len(c.LHS) == 1 && c.LHS[0] == "postcode" && c.RHS == "city" {
			ok = true
			if c.Confidence >= 1 || c.Confidence < 0.8 {
				t.Fatalf("confidence = %v", c.Confidence)
			}
		}
	}
	if !ok {
		t.Fatal("FD should be mined at lower threshold")
	}
}

func TestMineSkipsNulls(t *testing.T) {
	r := relation.New(relation.NewSchema("x", "a", "b"))
	r.MustAppend("k", "v")
	r.MustAppend("k", nil) // null RHS: unusable, not a violation
	r.MustAppend(nil, "v") // null LHS: unusable
	b := defaultMineBounds
	b.maxLHS = 1
	b.minSupport = 0.3
	var fd *CFD
	for i, c := range mine(r, b) {
		if !c.IsConstant() && c.LHS[0] == "a" && c.RHS == "b" {
			fd = &mine(r, b)[i]
		}
	}
	if fd == nil {
		t.Fatal("a→b should be mined ignoring null rows")
	}
	if fd.Confidence != 1 {
		t.Fatalf("confidence = %v, want 1 (nulls skipped)", fd.Confidence)
	}
}

func TestMineOnScenarioReference(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 300
	sc := datagen.Generate(cfg)
	cfds := Mine(sc.AddressRef)
	hasPostcodeCity := false
	for _, c := range cfds {
		if !c.IsConstant() && len(c.LHS) == 1 && c.LHS[0] == "postcode" && c.RHS == "city" {
			hasPostcodeCity = true
		}
	}
	if !hasPostcodeCity {
		t.Fatal("scenario reference data should yield postcode → city")
	}
}

func variableCFD(lhs []string, rhs string) CFD {
	p := map[string]PatternCell{rhs: {Any: true}}
	for _, a := range lhs {
		p[a] = PatternCell{Any: true}
	}
	return CFD{LHS: lhs, RHS: rhs, Pattern: p, Support: 1, Confidence: 1}
}

func TestViolationsVariable(t *testing.T) {
	r := relation.New(relation.NewSchema("x", "postcode", "city"))
	r.MustAppend("M1 1AA", "Manchester")
	r.MustAppend("M1 1AA", "Salford") // violates with row 0
	r.MustAppend("M2 2BB", "Manchester")
	r.MustAppend("M3 3CC", nil) // null RHS: skipped
	vs := Violations(r, variableCFD([]string{"postcode"}, "city"))
	if len(vs) != 1 || len(vs[0].Rows) != 2 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestViolationsConstant(t *testing.T) {
	c := CFD{
		LHS: []string{"postcode"}, RHS: "city",
		Pattern: map[string]PatternCell{
			"postcode": {Value: relation.String("M1 1AA")},
			"city":     {Value: relation.String("Manchester")},
		},
	}
	r := relation.New(relation.NewSchema("x", "postcode", "city"))
	r.MustAppend("M1 1AA", "Manchester") // ok
	r.MustAppend("M1 1AA", "Leeds")      // violation
	r.MustAppend("M9 9ZZ", "Leeds")      // pattern does not apply
	vs := Violations(r, c)
	if len(vs) != 1 || vs[0].Rows[0] != 1 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestViolationsMissingAttrsInapplicable(t *testing.T) {
	r := relation.New(relation.NewSchema("x", "other"))
	r.MustAppend("v")
	if vs := Violations(r, variableCFD([]string{"postcode"}, "city")); vs != nil {
		t.Fatalf("CFD over missing attrs must be inapplicable: %v", vs)
	}
}

func TestConsistencyRate(t *testing.T) {
	r := relation.New(relation.NewSchema("x", "postcode", "city"))
	r.MustAppend("M1 1AA", "Manchester")
	r.MustAppend("M1 1AA", "Salford")
	r.MustAppend("M2 2BB", "Leeds")
	r.MustAppend("M3 3DD", "Bury")
	rate := ConsistencyRate(r, []CFD{variableCFD([]string{"postcode"}, "city")})
	if rate != 0.5 {
		t.Fatalf("consistency = %v, want 0.5", rate)
	}
	if ConsistencyRate(r, nil) != 1 {
		t.Fatal("no CFDs = consistent")
	}
	empty := relation.New(r.Schema)
	if ConsistencyRate(empty, []CFD{variableCFD([]string{"postcode"}, "city")}) != 1 {
		t.Fatal("empty relation = consistent")
	}
}

func TestRepairFillsNullsFromReference(t *testing.T) {
	ref := refAddresses()
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 High St", nil, "M1 1AA")
	cfds := []CFD{variableCFD([]string{"postcode"}, "city")}
	repaired, log := PrepareReference(ref, cfds).Repair(res)
	v := cell(repaired, 0, "city")
	if !v.Equal(relation.String("Manchester")) {
		t.Fatalf("city not filled: %v (log %v)", v, log)
	}
	if len(log) == 0 || !strings.Contains(log[0].Reason, "reference") {
		t.Fatalf("log = %v", log)
	}
	// Original untouched.
	orig := cell(res, 0, "city")
	if !orig.IsNull() {
		t.Fatal("repair must not mutate input")
	}
}

func TestRepairCorrectsInconsistentValue(t *testing.T) {
	ref := refAddresses()
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 High St", "Leeds", "M1 1AA") // wrong city
	cfds := []CFD{variableCFD([]string{"postcode"}, "city")}
	repaired, _ := PrepareReference(ref, cfds).Repair(res)
	v := cell(repaired, 0, "city")
	if !v.Equal(relation.String("Manchester")) {
		t.Fatalf("city not corrected: %v", v)
	}
}

func TestRepairAmbiguousGroupsUntouched(t *testing.T) {
	ref := relation.New(relation.NewSchema("address", "street", "city", "postcode"))
	ref.MustAppend("1 X St", "Manchester", "M1 1AA")
	ref.MustAppend("2 X St", "Salford", "M1 1AA") // postcode→city ambiguous in ref
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 X St", nil, "M1 1AA")
	cfds := []CFD{variableCFD([]string{"postcode"}, "city")}
	repaired, log := PrepareReference(ref, cfds).Repair(res)
	v := cell(repaired, 0, "city")
	if !v.IsNull() {
		t.Fatalf("ambiguous reference evidence must not repair: %v (log %v)", v, log)
	}
}

func TestRepairFuzzyStreetTypo(t *testing.T) {
	ref := refAddresses()
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 Hgih St", "Manchester", "M1 1AA") // transposition typo
	repaired, log := PrepareReference(ref, nil).Repair(res)
	v := cell(repaired, 0, "street")
	if !v.Equal(relation.String("1 High St")) {
		t.Fatalf("typo not repaired: %v (log %v)", v, log)
	}
}

func TestRepairFuzzyAmbiguousLeftAlone(t *testing.T) {
	ref := relation.New(relation.NewSchema("address", "street", "city", "postcode"))
	ref.MustAppend("1 Park Rd", "Manchester", "M1 1AA")
	ref.MustAppend("1 Dark Rd", "Manchester", "M1 1AB")
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 Bark Rd", nil, nil) // equidistant from both
	repaired, _ := PrepareReference(ref, nil).Repair(res)
	v := cell(repaired, 0, "street")
	if !v.Equal(relation.String("1 Bark Rd")) {
		t.Fatalf("ambiguous fuzzy match must not repair: %v", v)
	}
}

func TestRepairCanonicalisesSpelling(t *testing.T) {
	ref := refAddresses()
	res := relation.New(relation.NewSchema("result", "street", "city", "postcode"))
	res.MustAppend("1 HIGH ST", "Manchester", "M1 1AA")
	repaired, log := PrepareReference(ref, nil).Repair(res)
	v := cell(repaired, 0, "street")
	if !v.Equal(relation.String("1 High St")) {
		t.Fatalf("case not canonicalised: %v (log %v)", v, log)
	}
}

func TestBoundedEditDistance(t *testing.T) {
	cases := []struct {
		a, b  string
		bound int
		want  int
	}{
		{"abc", "abc", 2, 0},
		{"abc", "abd", 2, 1},
		{"abc", "xyz", 2, -1},
		{"short", "muchlongerstring", 2, -1},
		{"kitten", "sitting", 3, 3},
	}
	for _, c := range cases {
		if got := boundedEditDistance(c.a, c.b, c.bound, make([]int, len(c.b)+1)); got != c.want {
			t.Errorf("boundedEditDistance(%q,%q,%d) = %d, want %d", c.a, c.b, c.bound, got, c.want)
		}
	}
}

// FuzzBoundedEditDistance holds the banded one-row distance to the full
// table it replaced, and the byte-mask bound closest skips keys by to the
// distance: strings d ≤ bound edits apart have masks at most 2·d bits apart.
// Both index bytes, so multi-byte input is just longer.
func FuzzBoundedEditDistance(f *testing.F) {
	f.Add("12 high street", "12 hgih street", 2)
	f.Add("kitten", "sitting", 3)
	f.Add("abc", "abc", 0)
	f.Add("", "ab", 2)
	f.Add("żółć road", "zolc road", 3)
	f.Add("1 park rd", "1 dark road", 1)
	row := make([]int, 1)
	f.Fuzz(func(t *testing.T, a, b string, bound int) {
		bound = ((bound % 4) + 4) % 4
		if len(row) < len(b)+1 {
			row = make([]int, len(b)+1)
		}
		for i := range row {
			row[i] = -7 // whatever an earlier call left behind
		}
		want := refBoundedEditDistance(a, b, bound)
		if got := boundedEditDistance(a, b, bound, row); got != want {
			t.Fatalf("boundedEditDistance(%q, %q, %d) = %d, full table says %d", a, b, bound, got, want)
		}
		if diff := bits.OnesCount64(byteMask(a) ^ byteMask(b)); want >= 0 && diff > 2*want {
			t.Fatalf("%q and %q are %d edits apart, but their byte masks %d bits", a, b, want, diff)
		}
	})
}

func TestRepairEndToEndScenario(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 200
	sc := datagen.Generate(cfg)

	// Dirty "result": rightmove rows renamed to target attribute names.
	res := relation.New(relation.NewSchema("result", "price", "street", "postcode", "bedrooms", "type", "description"))
	for _, t0 := range sc.Rightmove.Tuples {
		res.Tuples = append(res.Tuples, t0.Clone())
	}
	cfds := Mine(sc.AddressRef)
	before := ConsistencyRate(res, cfds)
	repaired, log := PrepareReference(sc.AddressRef, cfds).Repair(res)
	after := ConsistencyRate(repaired, cfds)
	if after < before {
		t.Fatalf("repair must not reduce consistency: %v -> %v", before, after)
	}
	if len(log) == 0 {
		t.Fatal("noisy scenario should produce repairs")
	}
}

package match

import (
	"math"
	"testing"
	"testing/quick"

	"vada/internal/datagen"
)

func TestJaroWinkler(t *testing.T) {
	if JaroWinkler("price", "price") != 1 {
		t.Error("identical strings should be 1")
	}
	if JaroWinkler("", "x") != 0 {
		t.Error("empty vs non-empty should be 0")
	}
	// Shared prefix should boost.
	if JaroWinkler("postcode", "postcodes") <= Jaro("postcode", "postcodes") {
		t.Error("Winkler prefix boost missing")
	}
	if s := JaroWinkler("bedrooms", "num_beds"); s <= 0 || s >= 1 {
		t.Errorf("JW(bedrooms,num_beds) = %v, want in (0,1)", s)
	}
}

func TestDiceBigram(t *testing.T) {
	if DiceBigram("night", "nacht") <= 0 || DiceBigram("night", "nacht") >= 1 {
		t.Error("partial overlap expected")
	}
	if DiceBigram("", "") != 1 {
		t.Error("two empties are identical")
	}
	if DiceBigram("ab", "ab") != 1 {
		t.Error("identical should be 1")
	}
}

func TestTokens(t *testing.T) {
	cases := map[string][]string{
		"asking_price": {"asking", "price"},
		"AskingPrice":  {"asking", "price"},
		"num_beds":     {"number", "bedrooms"},
		"post_code":    {"postcode"}, // pc expansion? no: post+code stay
		"crimerank":    {"crimerank"},
	}
	got := Tokens("asking_price")
	if len(got) != 2 || got[0] != "asking" || got[1] != "price" {
		t.Errorf("Tokens(asking_price) = %v", got)
	}
	got = Tokens("AskingPrice")
	if len(got) != 2 || got[0] != "asking" || got[1] != "price" {
		t.Errorf("Tokens(AskingPrice) = %v", got)
	}
	got = Tokens("num_beds")
	if len(got) != 2 || got[0] != "number" || got[1] != "bedrooms" {
		t.Errorf("Tokens(num_beds) = %v", got)
	}
	_ = cases
}

func TestNameSimilarityScenarioPairs(t *testing.T) {
	// The correspondences the paper's scenario needs must outscore the
	// decoys under the name matcher alone where names share structure.
	goodBeatsBad := []struct{ src, goodTgt, badTgt string }{
		{"asking_price", "price", "bedrooms"},
		{"post_code", "postcode", "street"},
		{"property_type", "type", "description"},
		{"num_beds", "bedrooms", "price"},
	}
	for _, c := range goodBeatsBad {
		g, b := NameSimilarity(c.src, c.goodTgt), NameSimilarity(c.src, c.badTgt)
		if g <= b {
			t.Errorf("NameSimilarity(%s,%s)=%.3f should beat (%s,%s)=%.3f",
				c.src, c.goodTgt, g, c.src, c.badTgt, b)
		}
	}
	// address_line vs street is the known hard case name matching misses —
	// it must stay below the plausible acceptance threshold.
	if s := NameSimilarity("address_line", "street"); s > 0.6 {
		t.Errorf("address_line/street should be a weak name match, got %.3f", s)
	}
}

func TestMatchSchemasAllPairs(t *testing.T) {
	src := datagen.RightmoveSchema()
	tgt := datagen.TargetSchema()
	ms := MatchSchemas(src, tgt)
	if len(ms) != src.Arity()*tgt.Arity() {
		t.Fatalf("pairs = %d, want %d", len(ms), src.Arity()*tgt.Arity())
	}
	// Identical names must score 1.
	for _, m := range ms {
		if m.SourceAttr == m.TargetAttr && m.Score != 1 {
			t.Errorf("identical name %s scored %v", m.SourceAttr, m.Score)
		}
		if m.Method != "name" {
			t.Errorf("method = %q", m.Method)
		}
	}
}

func TestShape(t *testing.T) {
	shape := func(s string) string { return string(appendShape(nil, s)) }
	if shape("M1 1AA") != "A9 9A" {
		t.Errorf("shape(M1 1AA) = %q", shape("M1 1AA"))
	}
	if shape("123 Oakwood Road") != shape("57 Church Lane") {
		t.Errorf("street shapes should collapse equal: %q vs %q",
			shape("123 Oakwood Road"), shape("57 Church Lane"))
	}
}

func TestMatchInstancesPostcodeAndStreet(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 300
	sc := datagen.Generate(cfg)

	// Target instances from the data-context address list.
	ms := ProfileInstances(sc.AddressRef).Match(sc.OnTheMarket)

	get := func(sa, ta string) float64 {
		for _, m := range ms {
			if m.SourceAttr == sa && m.TargetAttr == ta {
				return m.Score
			}
		}
		return -1
	}
	// Value overlap must make the hard correspondences strong…
	if s := get("address_line", "street"); s < 0.7 {
		t.Errorf("instance match address_line→street = %.3f, want ≥ 0.7", s)
	}
	if s := get("post_code", "postcode"); s < 0.6 {
		t.Errorf("instance match post_code→postcode = %.3f, want ≥ 0.6", s)
	}
	// …and clearly beat the decoys.
	if get("address_line", "street") <= get("address_line", "postcode") {
		t.Error("address_line should match street over postcode")
	}
	if get("post_code", "postcode") <= get("post_code", "street") {
		t.Error("post_code should match postcode over street")
	}
	if get("asking_price", "street") > 0.5 {
		t.Errorf("asking_price→street should be weak, got %.3f", get("asking_price", "street"))
	}
}

func TestCombineKeepsMax(t *testing.T) {
	name := []Match{{SourceRel: "s", SourceAttr: "a", TargetAttr: "t", Score: 0.3, Method: "name"}}
	inst := []Match{{SourceRel: "s", SourceAttr: "a", TargetAttr: "t", Score: 0.9, Method: "instance"}}
	out := Combine(name, inst)
	if len(out) != 1 || out[0].Score != 0.9 || out[0].Method != "combined" {
		t.Fatalf("combine = %v", out)
	}
	solo := Combine(name)
	if solo[0].Method != "name" {
		t.Fatalf("single-method combine should keep method: %v", solo)
	}
}

func TestSelectOneToOne(t *testing.T) {
	ms := []Match{
		{SourceRel: "s", SourceAttr: "a", TargetAttr: "x", Score: 0.9},
		{SourceRel: "s", SourceAttr: "a", TargetAttr: "y", Score: 0.8},  // loses: a used
		{SourceRel: "s", SourceAttr: "b", TargetAttr: "x", Score: 0.7},  // loses: x used
		{SourceRel: "s", SourceAttr: "b", TargetAttr: "y", Score: 0.6},  // at the threshold: kept
		{SourceRel: "s", SourceAttr: "c", TargetAttr: "z", Score: 0.59}, // below threshold
		{SourceRel: "r", SourceAttr: "a", TargetAttr: "x", Score: 0.65}, // other relation: ok
	}
	out := SelectOneToOne(ms)
	if len(out) != 3 {
		t.Fatalf("selected %d, want 3: %v", len(out), out)
	}
	for _, m := range out {
		if m.SourceRel == "s" && m.SourceAttr == "a" && m.TargetAttr != "x" {
			t.Errorf("wrong assignment: %v", m)
		}
	}
}

func TestSelectOneToOneDeterministicTies(t *testing.T) {
	ms := []Match{
		{SourceRel: "s", SourceAttr: "a", TargetAttr: "y", Score: 0.8},
		{SourceRel: "s", SourceAttr: "a", TargetAttr: "x", Score: 0.8},
	}
	a := SelectOneToOne(ms)
	b := SelectOneToOne([]Match{ms[1], ms[0]})
	if a[0].TargetAttr != b[0].TargetAttr {
		t.Fatal("tie-break must not depend on input order")
	}
	if a[0].TargetAttr != "x" {
		t.Fatalf("lexicographic tie-break expected x, got %s", a[0].TargetAttr)
	}
}

func TestEndToEndScenarioMatching(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 300
	sc := datagen.Generate(cfg)
	tgt := datagen.TargetSchema()

	nameOnly := SelectOneToOne(MatchSchemas(sc.OnTheMarket.Schema, tgt))
	withInstances := SelectOneToOne(Combine(
		MatchSchemas(sc.OnTheMarket.Schema, tgt),
		ProfileInstances(sc.AddressRef).Match(sc.OnTheMarket),
	))

	has := func(ms []Match, sa, ta string) bool {
		for _, m := range ms {
			if m.SourceAttr == sa && m.TargetAttr == ta {
				return true
			}
		}
		return false
	}
	if has(nameOnly, "address_line", "street") {
		t.Error("name-only matching should miss address_line→street (that's the point of data context)")
	}
	if !has(withInstances, "address_line", "street") {
		t.Error("instance matching should recover address_line→street")
	}
	if len(withInstances) <= len(nameOnly) {
		t.Errorf("data context should add matches: %d vs %d", len(withInstances), len(nameOnly))
	}
}

// Property: similarity functions are symmetric and bounded.
func TestPropSimilaritySymmetricBounded(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		prepared := func(a, b string) float64 {
			pa, pb := prepareName(a), prepareName(b)
			return pa.similarity(&pb)
		}
		for _, fn := range []func(string, string) float64{JaroWinkler, DiceBigram, TokenJaccard, NameSimilarity, prepared} {
			x, y := fn(a, b), fn(b, a)
			if math.Abs(x-y) > 1e-9 || x < 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

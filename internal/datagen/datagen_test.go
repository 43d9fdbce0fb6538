package datagen

import (
	"math"
	"testing"
	"testing/quick"

	"vada/internal/relation"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if a.Truth.Cardinality() != b.Truth.Cardinality() {
		t.Fatal("same seed must give same truth size")
	}
	for i := range a.Truth.Tuples {
		if a.Truth.Tuples[i].Key() != b.Truth.Tuples[i].Key() {
			t.Fatalf("row %d differs between runs", i)
		}
	}
	if a.Rightmove.Cardinality() != b.Rightmove.Cardinality() {
		t.Fatal("rightmove differs between runs")
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := DefaultConfig()
	a := Generate(cfg)
	cfg.Seed = 99
	b := Generate(cfg)
	same := true
	for i := 0; i < 10 && i < a.Truth.Cardinality() && i < b.Truth.Cardinality(); i++ {
		if a.Truth.Tuples[i].Key() != b.Truth.Tuples[i].Key() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should produce different data")
	}
}

func TestTruthShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProperties = 100
	sc := Generate(cfg)
	if sc.Truth.Cardinality() != 100 {
		t.Fatalf("truth size %d, want 100", sc.Truth.Cardinality())
	}
	// All addresses distinct.
	seen := map[string]bool{}
	si := sc.Truth.Schema.AttrIndex("street")
	pi := sc.Truth.Schema.AttrIndex("postcode")
	for _, tp := range sc.Truth.Tuples {
		k := tp[si].Str() + "|" + tp[pi].Str()
		if seen[k] {
			t.Fatalf("duplicate address %s", k)
		}
		seen[k] = true
	}
	// Bedrooms within 1..5, crimerank positive.
	bi := sc.Truth.Schema.AttrIndex("bedrooms")
	ci := sc.Truth.Schema.AttrIndex("crimerank")
	for _, tp := range sc.Truth.Tuples {
		if b := tp[bi].IntVal(); b < 1 || b > 5 {
			t.Fatalf("bedrooms out of range: %d", b)
		}
		if tp[ci].IntVal() < 1 {
			t.Fatal("crimerank must be positive")
		}
	}
}

func TestCoverageApproximate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProperties = 2000
	sc := Generate(cfg)
	rmFrac := float64(sc.Rightmove.Cardinality()) / float64(cfg.NProperties)
	if math.Abs(rmFrac-cfg.RightmoveCoverage) > 0.05 {
		t.Errorf("rightmove coverage %.3f, want ≈ %.2f", rmFrac, cfg.RightmoveCoverage)
	}
	otFrac := float64(sc.OnTheMarket.Cardinality()) / float64(cfg.NProperties)
	if math.Abs(otFrac-cfg.OnTheMarketCoverage) > 0.05 {
		t.Errorf("onthemarket coverage %.3f, want ≈ %.2f", otFrac, cfg.OnTheMarketCoverage)
	}
}

func TestSourceSchemasMatchPaper(t *testing.T) {
	sc := Generate(DefaultConfig())
	if got := sc.Rightmove.Schema.AttrNames(); len(got) != 6 || got[0] != "price" || got[5] != "description" {
		t.Fatalf("rightmove schema %v", got)
	}
	if !sc.OnTheMarket.Schema.HasAttr("asking_price") || !sc.OnTheMarket.Schema.HasAttr("post_code") {
		t.Fatalf("onthemarket should use divergent names: %v", sc.OnTheMarket.Schema)
	}
	if sc.Deprivation.Schema.Arity() != 2 {
		t.Fatalf("deprivation schema %v", sc.Deprivation.Schema)
	}
	if got := sc.AddressRef.Schema.AttrNames(); len(got) != 3 || got[1] != "city" {
		t.Fatalf("address schema %v", got)
	}
}

func TestBedroomErrorRateRealised(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProperties = 3000
	cfg.NullRate = 0
	sc := Generate(cfg)
	bi := sc.Rightmove.Schema.AttrIndex("bedrooms")
	errs := 0
	for _, tp := range sc.Rightmove.Tuples {
		if b := tp[bi].IntVal(); b > 5 { // master-bedroom areas are ≥ 9
			errs++
		}
	}
	frac := float64(errs) / float64(sc.Rightmove.Cardinality())
	if math.Abs(frac-cfg.BedroomErrorRate) > 0.04 {
		t.Errorf("bedroom error rate %.3f, want ≈ %.2f", frac, cfg.BedroomErrorRate)
	}
}

func TestNoiseDisabledMeansClean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NullRate, cfg.FormatNoiseRate, cfg.TypoRate, cfg.BedroomErrorRate = 0, 0, 0, 0
	cfg.RightmoveCoverage = 1.0
	sc := Generate(cfg)
	if sc.Rightmove.Cardinality() != cfg.NProperties {
		t.Fatalf("full coverage expected: %d", sc.Rightmove.Cardinality())
	}
	pi := sc.Rightmove.Schema.AttrIndex("price")
	for _, tp := range sc.Rightmove.Tuples {
		if tp[pi].Kind() != relation.KindFloat {
			t.Fatalf("clean price should be numeric, got %v", tp[pi])
		}
	}
}

func TestCanonicalPostcode(t *testing.T) {
	cases := map[string]string{
		"m1 1aa":   "M1 1AA",
		"M11AA":    "M1 1AA",
		" sk4 2bb": "SK4 2BB",
		"OL1 1AB":  "OL1 1AB",
		"X":        "X",
	}
	for in, want := range cases {
		if got := CanonicalPostcode(in); got != want {
			t.Errorf("CanonicalPostcode(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalType(t *testing.T) {
	cases := map[string]string{
		"semi":           "semi-detached",
		"Semi-Detached":  "semi-detached",
		"apartment":      "flat",
		"Flat":           "flat",
		"TERRACE":        "terraced",
		"detached house": "detached",
		"Bungalow":       "bungalow",
		"castle":         "castle",
	}
	for in, want := range cases {
		if got := CanonicalType(in); got != want {
			t.Errorf("CanonicalType(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParsePrice(t *testing.T) {
	cases := []struct {
		in   relation.Value
		want float64
		ok   bool
	}{
		{relation.Float(250000), 250000, true},
		{relation.Int(250000), 250000, true},
		{relation.String("£250,000"), 250000, true},
		{relation.String("250,000"), 250000, true},
		{relation.String("£250000"), 250000, true},
		{relation.String("POA"), 0, false},
		{relation.String(""), 0, false},
		{relation.Null(), 0, false},
		{relation.Bool(true), 0, false},
	}
	for _, c := range cases {
		got, ok := ParsePrice(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParsePrice(%v) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestOracleLookup(t *testing.T) {
	sc := Generate(DefaultConfig())
	tp := sc.Truth.Tuples[0]
	street := tp[sc.Truth.Schema.AttrIndex("street")].Str()
	pc := tp[sc.Truth.Schema.AttrIndex("postcode")].Str()
	truth, ok := sc.Oracle.Lookup(street, pc)
	if !ok {
		t.Fatal("oracle should know ground-truth address")
	}
	if truth["crimerank"].IsNull() {
		t.Fatal("oracle should supply crimerank")
	}
	// Case/spacing robust.
	if _, ok := sc.Oracle.Lookup(street, CanonicalPostcode(pc+" ")); !ok {
		t.Fatal("oracle lookup should be canonicalised")
	}
	if _, ok := sc.Oracle.Lookup("1 Nowhere Xy", pc); ok {
		t.Fatal("unknown street should miss")
	}
}

func TestOracleCellCorrect(t *testing.T) {
	sc := Generate(DefaultConfig())
	tp := sc.Truth.Tuples[0]
	sch := sc.Truth.Schema
	street := tp[sch.AttrIndex("street")].Str()
	pc := tp[sch.AttrIndex("postcode")].Str()
	beds := tp[sch.AttrIndex("bedrooms")]
	price := tp[sch.AttrIndex("price")]
	ptype := tp[sch.AttrIndex("type")].Str()

	if !sc.Oracle.CellCorrect(street, pc, "bedrooms", beds) {
		t.Error("true bedrooms should verify")
	}
	if sc.Oracle.CellCorrect(street, pc, "bedrooms", relation.Int(beds.IntVal()+1)) {
		t.Error("wrong bedrooms should fail")
	}
	if !sc.Oracle.CellCorrect(street, pc, "price", relation.String("£"+thousands(int(price.FloatVal())))) {
		t.Error("formatted price should verify after canonicalisation")
	}
	// Type synonyms verify.
	for _, syn := range typeSynonyms[ptype] {
		if !sc.Oracle.CellCorrect(street, pc, "type", relation.String(syn)) {
			t.Errorf("synonym %q of %q should verify", syn, ptype)
		}
	}
	if sc.Oracle.CellCorrect(street, pc, "bedrooms", relation.Null()) {
		t.Error("null never verifies")
	}
	if sc.Oracle.CellCorrect(street, pc, "ghost", relation.Int(1)) {
		t.Error("unknown attribute never verifies")
	}
}

func TestOracleScorePerfectResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProperties = 50
	sc := Generate(cfg)
	// Build a perfect target-shaped result from the truth.
	res := relation.New(TargetSchema())
	sch := sc.Truth.Schema
	for _, tp := range sc.Truth.Tuples {
		res.MustAppend(
			tp[sch.AttrIndex("type")], tp[sch.AttrIndex("description")],
			tp[sch.AttrIndex("street")], tp[sch.AttrIndex("postcode")],
			tp[sch.AttrIndex("bedrooms")], tp[sch.AttrIndex("price")],
			tp[sch.AttrIndex("crimerank")])
	}
	s := sc.Oracle.ScoreResult(res)
	if s.AddressablePrecision != 1 || s.Recall != 1 || s.F1 != 1 || s.CellAccuracy != 1 {
		t.Fatalf("perfect result should score 1s: %+v", s)
	}
	for _, attr := range ScoredAttributes {
		if s.Completeness[attr] != 1 {
			t.Fatalf("completeness(%s) = %v", attr, s.Completeness[attr])
		}
	}
}

func TestOracleScoreEmptyAndJunk(t *testing.T) {
	sc := Generate(DefaultConfig())
	empty := relation.New(TargetSchema())
	s := sc.Oracle.ScoreResult(empty)
	if s.F1 != 0 || s.Rows != 0 {
		t.Fatalf("empty result score %+v", s)
	}
	junk := relation.New(TargetSchema())
	junk.MustAppend("flat", "x", "1 Fake St", "ZZ9 9ZZ", 2, 1000.0, 5)
	s = sc.Oracle.ScoreResult(junk)
	if s.AddressablePrecision != 0 || s.Recall != 0 {
		t.Fatalf("junk result score %+v", s)
	}
}

// Property: lower noise never lowers source cell quality (monotone noise
// model) — checked via bedroom error counts.
func TestPropNoiseMonotone(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed % 1000
		cfg.NProperties = 300
		cfg.BedroomErrorRate = 0.0
		clean := Generate(cfg)
		cfg.BedroomErrorRate = 0.5
		dirty := Generate(cfg)
		count := func(sc *Scenario) int {
			bi := sc.Rightmove.Schema.AttrIndex("bedrooms")
			n := 0
			for _, tp := range sc.Rightmove.Tuples {
				if !tp[bi].IsNull() && tp[bi].IntVal() > 5 {
					n++
				}
			}
			return n
		}
		return count(clean) == 0 && count(dirty) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

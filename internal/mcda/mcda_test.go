package mcda

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func crit(metric, target string) Criterion { return Criterion{Metric: metric, Target: target} }

func TestParseStrength(t *testing.T) {
	cases := map[string]Strength{
		"equally":                                Equal,
		"moderately":                             Moderately,
		"strongly more important than":           Strongly,
		"very strongly more important":           VeryStrongly,
		"Extremely":                              Extremely,
		"  moderately more important than  ":     Moderately,
		"very strongly More Important Than":      VeryStrongly,
		"strongly":                               Strongly,
		"":                                       Equal,
		"equal":                                  Equal,
		"equally important":                      Equal,
		"moderately more important":              Moderately,
		"extremely more important than":          Extremely,
		"very strongly":                          VeryStrongly,
		"STRONGLY":                               Strongly,
		"Moderately More Important Than":         Moderately,
		"  extremely  ":                          Extremely,
		"equally important ":                     Equal,
		"strongly more important":                Strongly,
		"very strongly more important than":      VeryStrongly,
		"extremely":                              Extremely,
		"moderately more important than":         Moderately,
		"equally more important than":            Equal,
		"Very Strongly More Important Than     ": VeryStrongly,
	}
	for s, want := range cases {
		got, err := ParseStrength(s)
		if err != nil || got != want {
			t.Errorf("ParseStrength(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseStrength("sort of"); err == nil {
		t.Error("unknown strength should fail")
	}
}

func TestStrengthString(t *testing.T) {
	if Strongly.String() != "strongly more important" {
		t.Errorf("got %q", Strongly.String())
	}
	if Strength(4).String() != "importance(4)" {
		t.Errorf("got %q", Strength(4).String())
	}
}

func TestAddComparisonValidation(t *testing.T) {
	m := NewModel()
	a := crit("completeness", "crimerank")
	if err := m.AddComparison(a, a, Strongly); err == nil {
		t.Error("self-comparison should fail")
	}
	if err := m.AddComparison(a, crit("accuracy", "type"), Strength(12)); err == nil {
		t.Error("out-of-range strength should fail")
	}
	if err := m.AddComparison(a, crit("accuracy", "type"), Strongly); err != nil {
		t.Errorf("valid comparison rejected: %v", err)
	}
}

func TestComparisonOverride(t *testing.T) {
	m := NewModel()
	a, b := crit("completeness", "x"), crit("accuracy", "y")
	_ = m.AddComparison(a, b, Moderately)
	_ = m.AddComparison(b, a, Strongly) // restates the same pair reversed
	if len(m.Comparisons()) != 1 {
		t.Fatalf("restated pair should override, have %d", len(m.Comparisons()))
	}
	w, _, err := m.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if w[b] <= w[a] {
		t.Fatalf("override not applied: %v", w)
	}
}

func TestWeightsEmptyAndSingle(t *testing.T) {
	m := NewModel()
	w, d, err := m.Weights()
	if err != nil || len(w) != 0 || !d.Complete {
		t.Fatalf("empty model: %v %v %v", w, d, err)
	}
	m.AddCriterion(crit("completeness", "a"))
	w, _, err = m.Weights()
	if err != nil || math.Abs(w[crit("completeness", "a")]-1) > 1e-12 {
		t.Fatalf("single criterion weight: %v %v", w, err)
	}
}

func TestWeightsTwoCriteria(t *testing.T) {
	m := NewModel()
	a, b := crit("completeness", "crimerank"), crit("accuracy", "type")
	if err := m.AddComparison(a, b, VeryStrongly); err != nil {
		t.Fatal(err)
	}
	w, d, err := m.Weights()
	if err != nil {
		t.Fatal(err)
	}
	// For a 2x2 reciprocal matrix with a=7: weights 7/8 and 1/8.
	if math.Abs(w[a]-7.0/8) > 1e-9 || math.Abs(w[b]-1.0/8) > 1e-9 {
		t.Fatalf("weights = %v, want 7/8 and 1/8", w)
	}
	if !d.Complete || d.ConsistencyRatio != 0 {
		t.Fatalf("2x2 diagnostics = %+v", d)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	m := paperModel(t)
	w, _, err := m.Weights()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum %v, want 1", sum)
	}
}

// paperModel encodes Figure 2(d) of the paper.
func paperModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	compCrime := crit("completeness", "crimerank")
	accType := crit("accuracy", "property.type")
	consProp := crit("consistency", "property")
	compBeds := crit("completeness", "property.bedrooms")
	compStreet := crit("completeness", "property.street")
	compPost := crit("completeness", "property.postcode")
	for _, c := range []struct {
		more, less Criterion
		s          Strength
	}{
		{compCrime, accType, VeryStrongly},
		{consProp, compBeds, Strongly},
		{compStreet, compPost, Moderately},
	} {
		if err := m.AddComparison(c.more, c.less, c.s); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestPaperUserContextWeights(t *testing.T) {
	m := paperModel(t)
	w, d, err := m.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if d.Complete {
		t.Fatal("paper model leaves pairs uncompared; Complete should be false")
	}
	// The stated preferences must be reflected in the weight order.
	if w[crit("completeness", "crimerank")] <= w[crit("accuracy", "property.type")] {
		t.Error("crimerank completeness should outweigh type accuracy")
	}
	if w[crit("consistency", "property")] <= w[crit("completeness", "property.bedrooms")] {
		t.Error("property consistency should outweigh bedrooms completeness")
	}
	if w[crit("completeness", "property.street")] <= w[crit("completeness", "property.postcode")] {
		t.Error("street completeness should outweigh postcode completeness")
	}
}

// eigenWeights derives weights with the principal-eigenvector method (power
// iteration): the reference the geometric-mean Weights are checked against.
// The two agree exactly for consistent matrices.
func eigenWeights(m *Model) map[Criterion]float64 {
	n := len(m.criteria)
	out := make(map[Criterion]float64, n)
	if n == 0 {
		return out
	}
	a, _ := m.matrix()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	for iter := 0; iter < 200; iter++ {
		next := make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[i] += a[i][j] * w[j]
			}
			sum += next[i]
		}
		maxDelta := 0.0
		for i := range next {
			next[i] /= sum
			if d := math.Abs(next[i] - w[i]); d > maxDelta {
				maxDelta = d
			}
		}
		w = next
		if maxDelta < 1e-12 {
			break
		}
	}
	for i, c := range m.criteria {
		out[c] = w[i]
	}
	return out
}

func TestEigenAgreesWithGeometricOnConsistent(t *testing.T) {
	m := NewModel()
	a, b, c := crit("m", "a"), crit("m", "b"), crit("m", "c")
	// Perfectly consistent: a=3b, b=3c, a=9c.
	_ = m.AddComparison(a, b, Moderately)
	_ = m.AddComparison(b, c, Moderately)
	_ = m.AddComparison(a, c, Extremely)
	gw, d, err := m.Weights()
	if err != nil {
		t.Fatal(err)
	}
	ew := eigenWeights(m)
	for _, cr := range m.Criteria() {
		if math.Abs(gw[cr]-ew[cr]) > 1e-6 {
			t.Errorf("weights disagree for %v: gm=%v eig=%v", cr, gw[cr], ew[cr])
		}
	}
	if d.ConsistencyRatio > 1e-9 {
		t.Errorf("consistent matrix should have CR≈0, got %v", d.ConsistencyRatio)
	}
}

func TestConsistencyRatioFlagsContradiction(t *testing.T) {
	m := NewModel()
	a, b, c := crit("m", "a"), crit("m", "b"), crit("m", "c")
	// Contradictory cycle: a>b, b>c, c>a all strongly.
	_ = m.AddComparison(a, b, Strongly)
	_ = m.AddComparison(b, c, Strongly)
	_ = m.AddComparison(c, a, Strongly)
	_, d, err := m.Weights()
	if err != nil {
		t.Fatal(err)
	}
	if d.ConsistencyRatio < 0.1 {
		t.Fatalf("cyclic preferences should have CR > 0.1, got %v", d.ConsistencyRatio)
	}
}

func TestScoreAndRank(t *testing.T) {
	a, b := crit("completeness", "x"), crit("accuracy", "y")
	weights := map[Criterion]float64{a: 0.8, b: 0.2}
	cands := map[string]map[Criterion]float64{
		"m1": {a: 0.9, b: 0.1}, // 0.74
		"m2": {a: 0.5, b: 1.0}, // 0.60
		"m3": {a: 0.9, b: 0.1}, // tie with m1
	}
	if s := Score(weights, cands["m1"]); math.Abs(s-0.74) > 1e-9 {
		t.Fatalf("score = %v", s)
	}
	if s1, s2, s3 := Score(weights, cands["m1"]), Score(weights, cands["m2"]), Score(weights, cands["m3"]); s1 <= s2 || s1 != s3 {
		t.Fatalf("scores = %v %v %v, want m1 = m3 > m2", s1, s2, s3)
	}
}

func TestScoreMissingMetricContributesZero(t *testing.T) {
	a, b := crit("completeness", "x"), crit("accuracy", "y")
	weights := map[Criterion]float64{a: 0.5, b: 0.5}
	if s := Score(weights, map[Criterion]float64{a: 1.0}); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("score = %v, want 0.5", s)
	}
}

// Property: weights are positive and sum to 1 for random comparison sets.
func TestPropWeightsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewModel()
		n := 2 + rng.Intn(5)
		crits := make([]Criterion, n)
		for i := range crits {
			crits[i] = crit("m", string(rune('a'+i)))
			m.AddCriterion(crits[i])
		}
		for k := 0; k < rng.Intn(8); k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			s := Strength(1 + 2*rng.Intn(5))
			_ = m.AddComparison(crits[i], crits[j], s)
		}
		w, _, err := m.Weights()
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range w {
			if v <= 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a single statement "a s-times more important than b" always
// yields w(a)/w(b) = s in a two-criterion model.
func TestPropTwoCriterionRatio(t *testing.T) {
	f := func(pick uint8) bool {
		s := Strength(1 + 2*int(pick%5))
		m := NewModel()
		a, b := crit("m", "a"), crit("m", "b")
		if err := m.AddComparison(a, b, s); err != nil {
			return false
		}
		w, _, err := m.Weights()
		if err != nil {
			return false
		}
		return math.Abs(w[a]/w[b]-float64(s)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Package mcda implements the user-context machinery of VADA: pairwise
// comparisons of result features on a verbal importance scale, compiled into
// numeric weights that drive multi-criteria source and mapping selection
// (paper §2.2, Figure 2(d), and demonstration step 4).
//
// The method follows the Analytic Hierarchy Process (AHP): comparisons form
// a positive reciprocal matrix; weights are the normalised row geometric
// means (the deterministic method of choice), cross-checkable against the
// principal eigenvector; the consistency ratio flags contradictory user
// input.
package mcda

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
)

// Criterion identifies one feature of the wrangling result that the user can
// prioritise, e.g. completeness of target.crimerank or consistency of the
// whole property table.
type Criterion struct {
	// Metric is the quality dimension: "completeness", "accuracy",
	// "consistency", "relevance", ...
	Metric string
	// Target is what the metric applies to: an attribute ("crimerank"),
	// a qualified attribute ("property.bedrooms") or a relation
	// ("property").
	Target string
}

// String renders the criterion as "metric(target)".
func (c Criterion) String() string { return c.Metric + "(" + c.Target + ")" }

// Strength is the verbal importance scale of the paper, mapped to the
// standard 1–9 AHP scale.
type Strength int

// Verbal strengths. Even intermediate values (2,4,6,8) are accepted by
// ParseStrength as "between" grades.
const (
	Equal        Strength = 1
	Moderately   Strength = 3
	Strongly     Strength = 5
	VeryStrongly Strength = 7
	Extremely    Strength = 9
)

// String renders the canonical verbal form.
func (s Strength) String() string {
	switch s {
	case Equal:
		return "equally important"
	case Moderately:
		return "moderately more important"
	case Strongly:
		return "strongly more important"
	case VeryStrongly:
		return "very strongly more important"
	case Extremely:
		return "extremely more important"
	default:
		return fmt.Sprintf("importance(%d)", int(s))
	}
}

// ParseStrength parses verbal forms such as "strongly" or "very strongly
// more important than". It is lenient about the trailing boilerplate.
func ParseStrength(s string) (Strength, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	for _, suffix := range []string{"more important than", "more important", "important"} {
		t = strings.TrimSpace(strings.TrimSuffix(t, suffix))
	}
	switch t {
	case "equally", "equal", "":
		return Equal, nil
	case "moderately":
		return Moderately, nil
	case "strongly":
		return Strongly, nil
	case "very strongly":
		return VeryStrongly, nil
	case "extremely":
		return Extremely, nil
	default:
		return 0, fmt.Errorf("mcda: unknown importance strength %q", s)
	}
}

// Comparison is one pairwise statement: More is Strength-times more
// important than Less.
type Comparison struct {
	// More is the criterion stated to be more important.
	More Criterion
	// Less is the criterion compared against.
	Less Criterion
	// Strength is the verbal/numeric intensity of the preference.
	Strength Strength
}

// String renders the statement in the paper's style (Figure 2(d)).
func (c Comparison) String() string {
	return fmt.Sprintf("%s %s than %s", c.More, c.Strength, c.Less)
}

// Model accumulates pairwise comparisons and derives weights.
type Model struct {
	criteria    []Criterion
	index       map[Criterion]int
	comparisons []Comparison
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{index: map[Criterion]int{}}
}

// Clone returns an independent copy of the model: statements added to
// either afterwards do not reach the other.
func (m *Model) Clone() *Model {
	return &Model{
		criteria:    slices.Clone(m.criteria),
		index:       maps.Clone(m.index),
		comparisons: slices.Clone(m.comparisons),
	}
}

// AddCriterion registers a criterion explicitly (criteria referenced by
// comparisons are registered automatically).
func (m *Model) AddCriterion(c Criterion) {
	if _, ok := m.index[c]; ok {
		return
	}
	m.index[c] = len(m.criteria)
	m.criteria = append(m.criteria, c)
}

// AddComparison records a pairwise statement. Comparing a criterion with
// itself is an error; re-stating a pair overrides the previous statement.
func (m *Model) AddComparison(more, less Criterion, s Strength) error {
	if more == less {
		return fmt.Errorf("mcda: cannot compare %s with itself", more)
	}
	if s < 1 || s > 9 {
		return fmt.Errorf("mcda: strength %d out of range [1,9]", s)
	}
	m.AddCriterion(more)
	m.AddCriterion(less)
	for i, c := range m.comparisons {
		if (c.More == more && c.Less == less) || (c.More == less && c.Less == more) {
			m.comparisons[i] = Comparison{More: more, Less: less, Strength: s}
			return nil
		}
	}
	m.comparisons = append(m.comparisons, Comparison{More: more, Less: less, Strength: s})
	return nil
}

// Criteria returns the registered criteria in registration order.
func (m *Model) Criteria() []Criterion { return append([]Criterion(nil), m.criteria...) }

// Comparisons returns the recorded statements.
func (m *Model) Comparisons() []Comparison { return append([]Comparison(nil), m.comparisons...) }

// Diagnostics reports how trustworthy the derived weights are.
type Diagnostics struct {
	// LambdaMax is the principal eigenvalue estimate of the comparison
	// matrix.
	LambdaMax float64
	// ConsistencyIndex is (λmax − n)/(n − 1).
	ConsistencyIndex float64
	// ConsistencyRatio is CI divided by the random index; values above 0.1
	// conventionally indicate inconsistent judgements.
	ConsistencyRatio float64
	// Complete reports whether every pair was compared directly; when
	// false, missing entries were estimated by transitive chaining.
	Complete bool
}

// randomIndex holds Saaty's random consistency indices by matrix size.
var randomIndex = []float64{0, 0, 0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45, 1.49}

// matrix builds the positive reciprocal comparison matrix. Pairs without a
// direct statement are estimated via one-step transitive chaining
// (a_ik ≈ geometric mean of a_ij·a_jk over known j), defaulting to 1.
func (m *Model) matrix() ([][]float64, bool) {
	n := len(m.criteria)
	a := make([][]float64, n)
	known := make([][]bool, n)
	for i := range a {
		a[i] = make([]float64, n)
		known[i] = make([]bool, n)
		a[i][i] = 1
		known[i][i] = true
	}
	for _, c := range m.comparisons {
		i, j := m.index[c.More], m.index[c.Less]
		a[i][j] = float64(c.Strength)
		a[j][i] = 1 / float64(c.Strength)
		known[i][j], known[j][i] = true, true
	}
	complete := true
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if known[i][j] {
				continue
			}
			complete = false
			logSum, cnt := 0.0, 0
			for k := 0; k < n; k++ {
				if k != i && k != j && known[i][k] && known[k][j] {
					logSum += math.Log(a[i][k] * a[k][j])
					cnt++
				}
			}
			if cnt > 0 {
				a[i][j] = math.Exp(logSum / float64(cnt))
			} else {
				a[i][j] = 1
			}
		}
	}
	// Re-symmetrise estimated entries.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !known[i][j] {
				g := math.Sqrt(a[i][j] / a[j][i])
				a[i][j] = g
				a[j][i] = 1 / g
			}
		}
	}
	return a, complete
}

// Weights derives normalised criterion weights by the row geometric-mean
// method and reports consistency diagnostics. With no criteria it returns an
// empty map; with criteria but no comparisons all weights are equal.
func (m *Model) Weights() (map[Criterion]float64, Diagnostics, error) {
	n := len(m.criteria)
	out := make(map[Criterion]float64, n)
	if n == 0 {
		return out, Diagnostics{Complete: true}, nil
	}
	a, complete := m.matrix()

	w := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		logSum := 0.0
		for j := 0; j < n; j++ {
			logSum += math.Log(a[i][j])
		}
		w[i] = math.Exp(logSum / float64(n))
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}

	// λmax estimate: mean of (A·w)_i / w_i.
	lambda := 0.0
	for i := 0; i < n; i++ {
		dot := 0.0
		for j := 0; j < n; j++ {
			dot += a[i][j] * w[j]
		}
		lambda += dot / w[i]
	}
	lambda /= float64(n)

	d := Diagnostics{LambdaMax: lambda, Complete: complete}
	if n > 2 {
		d.ConsistencyIndex = (lambda - float64(n)) / float64(n-1)
		ri := 1.49
		if n < len(randomIndex) {
			ri = randomIndex[n]
		}
		if ri > 0 {
			d.ConsistencyRatio = d.ConsistencyIndex / ri
		}
	}
	for i, c := range m.criteria {
		out[c] = w[i]
	}
	return out, d, nil
}

// Score computes the weighted-sum utility of a candidate whose per-criterion
// quality estimates are given in metrics (values in [0,1]). Criteria missing
// from metrics contribute zero; criteria missing from weights are ignored.
// The terms are added in criterion order, not map order: float addition is
// not associative, and candidates an ulp apart must rank the same every time.
func Score(weights map[Criterion]float64, metrics map[Criterion]float64) float64 {
	crits := make([]Criterion, 0, len(weights))
	for c := range weights {
		if _, ok := metrics[c]; ok {
			crits = append(crits, c)
		}
	}
	sort.Slice(crits, func(i, j int) bool {
		if crits[i].Metric != crits[j].Metric {
			return crits[i].Metric < crits[j].Metric
		}
		return crits[i].Target < crits[j].Target
	})
	s := 0.0
	for _, c := range crits {
		s += weights[c] * metrics[c]
	}
	return s
}

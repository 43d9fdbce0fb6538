package match

// The reference implementation of instance matching: the pairwise code
// instance matching ran before columns were profiled, kept as the oracle
// TestInstanceDifferential and FuzzInstanceDifferential hold the profiled
// path to, bit for bit. It re-samples, re-lower-cases, re-shapes and
// re-parses both columns of every (source attribute, target attribute)
// pair. Names gained a ref prefix, and one line of behaviour changed:
// refShapeSimilarity summed dot, na and nb in map-iteration order, which no
// bit-equality test can be written against, and now sums over sorted shapes.
// clamp01 and sqrt are shared with the production code, which did not touch
// them.

import (
	"fmt"
	"sort"
	"strings"

	"vada/internal/relation"
)

// refMatchInstances runs the instance-based matcher: source attribute values
// against target-attribute instances (from data-context reference, master or
// example data — Table 1, row "Instance Matching"). Scores combine distinct-
// value overlap, value-shape distribution similarity and numeric-range
// overlap.
func refMatchInstances(src *relation.Relation, targetInstances map[string][]relation.Value) []Match {
	var out []Match
	targetAttrs := make([]string, 0, len(targetInstances))
	for ta := range targetInstances {
		targetAttrs = append(targetAttrs, ta)
	}
	sort.Strings(targetAttrs)
	for _, sa := range src.Schema.Attrs {
		col, err := src.Column(sa.Name)
		if err != nil {
			continue
		}
		sv := refSampleValues(col)
		if len(sv) == 0 {
			continue
		}
		for _, ta := range targetAttrs {
			tv := refSampleValues(targetInstances[ta])
			if len(tv) == 0 {
				continue
			}
			score := refInstanceSimilarity(sv, tv)
			out = append(out, Match{
				SourceRel: src.Schema.Name, SourceAttr: sa.Name, TargetAttr: ta,
				Score: score, Method: "instance",
			})
		}
	}
	return out
}

func refSampleValues(col []relation.Value) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range col {
		if v.IsNull() {
			continue
		}
		s := strings.ToLower(strings.TrimSpace(v.String()))
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
		if len(out) >= InstanceSample {
			break
		}
	}
	return out
}

// refInstanceSimilarity blends three signals over sampled distinct values.
func refInstanceSimilarity(a, b []string) float64 {
	overlap := refValueJaccard(a, b)
	shape := refShapeSimilarity(a, b)
	numeric := refNumericRangeOverlap(a, b)
	// Overlap is the strongest evidence; shape separates postcodes from
	// streets; numeric range separates prices from bedroom counts.
	score := 0.6*overlap + 0.25*shape + 0.15*numeric
	if overlap > 0.5 { // strong extensional evidence dominates
		score = 0.85 + 0.15*overlap
	}
	return clamp01(score)
}

func refValueJaccard(a, b []string) float64 {
	sa := map[string]bool{}
	for _, v := range a {
		sa[v] = true
	}
	inter := 0
	sb := map[string]bool{}
	for _, v := range b {
		if sb[v] {
			continue
		}
		sb[v] = true
		if sa[v] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// refShape maps a value to its character-class pattern: "M1 1AA" -> "A9 9AA".
func refShape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			b.WriteByte('9')
		case r >= 'a' && r <= 'z':
			b.WriteByte('a')
		case r >= 'A' && r <= 'Z':
			b.WriteByte('A')
		default:
			b.WriteRune(r)
		}
	}
	// Collapse runs so "123" and "57" share the shape "9+".
	var c strings.Builder
	var prev rune
	for _, r := range b.String() {
		if r != prev {
			c.WriteRune(r)
			prev = r
		}
	}
	return c.String()
}

func refShapeSimilarity(a, b []string) float64 {
	da, db := refShapeDist(a), refShapeDist(b)
	// Cosine over shape distributions.
	dot, na, nb := 0.0, 0.0, 0.0
	for _, s := range sortedShapes(da) {
		fa := da[s]
		na += fa * fa
		if fb, ok := db[s]; ok {
			dot += fa * fb
		}
	}
	for _, s := range sortedShapes(db) {
		nb += db[s] * db[s]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (sqrt(na) * sqrt(nb))
}

func sortedShapes(d map[string]float64) []string {
	out := make([]string, 0, len(d))
	for s := range d {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

func refShapeDist(vals []string) map[string]float64 {
	counts := map[string]int{}
	for _, v := range vals {
		counts[refShape(v)]++
	}
	out := make(map[string]float64, len(counts))
	for s, c := range counts {
		out[s] = float64(c) / float64(len(vals))
	}
	return out
}

func refNumericRangeOverlap(a, b []string) float64 {
	minA, maxA, fracA := refNumericStats(a)
	minB, maxB, fracB := refNumericStats(b)
	if fracA < 0.8 || fracB < 0.8 {
		return 0
	}
	lo := minA
	if minB > lo {
		lo = minB
	}
	hi := maxA
	if maxB < hi {
		hi = maxB
	}
	if hi <= lo {
		return 0
	}
	span := maxA
	if maxB > span {
		span = maxB
	}
	floor := minA
	if minB < floor {
		floor = minB
	}
	if span == floor {
		return 1
	}
	return (hi - lo) / (span - floor)
}

func refNumericStats(vals []string) (lo, hi float64, frac float64) {
	n := 0
	for _, v := range vals {
		var f float64
		if _, err := fmt.Sscanf(strings.ReplaceAll(strings.TrimPrefix(v, "£"), ",", ""), "%f", &f); err != nil {
			continue
		}
		if n == 0 || f < lo {
			lo = f
		}
		if n == 0 || f > hi {
			hi = f
		}
		n++
	}
	if len(vals) == 0 {
		return 0, 0, 0
	}
	return lo, hi, float64(n) / float64(len(vals))
}

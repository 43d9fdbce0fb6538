// Package fusion implements data fusion, the paper's example of a transducer
// that "may start to evaluate when duplicates have been detected" (§2). Which
// rows are duplicates is the caller's key: Fold gives its case-folded part,
// and Vote merges the rows that share a key into one.
package fusion

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"vada/internal/relation"
)

// Fold is s in one canonical case: Fold(a) == Fold(b) exactly when
// strings.EqualFold(a, b). Each rune becomes the least rune of its
// unicode.SimpleFold orbit, and each byte that is not UTF-8 becomes U+FFFD,
// which is how EqualFold reads it.
func Fold(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			var b strings.Builder
			b.Grow(len(s))
			for _, r := range s {
				least := r
				for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
					least = min(least, f)
				}
				b.WriteRune(least)
			}
			return b.String()
		}
	}
	// ASCII: the least rune of a letter's orbit is its upper case.
	return strings.ToUpper(s)
}

// Vote fuses duplicate rows into one: each column takes the non-null value
// with the greatest weight, ties to the value seen first, and stays null when
// every row is. A row weighs trust[its source], read at provIdx, when trust
// has that source, and 1 otherwise.
func Vote(members []relation.Tuple, provIdx int, trust map[string]float64) relation.Tuple {
	t := make(relation.Tuple, len(members[0]))
	// The distinct values of a column in first-seen order, and their weights:
	// duplicates are a handful of rows, so a scan finds a value.
	var seen []relation.Value
	var weights []float64
	for col := range t {
		seen, weights = seen[:0], weights[:0]
		for _, m := range members {
			v := m[col]
			if v.IsNull() {
				continue
			}
			w := 1.0
			if provIdx >= 0 {
				if tw, ok := trust[m[provIdx].String()]; ok {
					w = tw
				}
			}
			j := slices.IndexFunc(seen, v.Same)
			if j < 0 {
				j, seen, weights = len(seen), append(seen, v), append(weights, 0)
			}
			weights[j] += w
		}
		bestW := -1.0
		for j, w := range weights {
			if w > bestW {
				bestW = w
				t[col] = seen[j]
			}
		}
		if bestW < 0 {
			t[col] = relation.Null()
		}
	}
	return t
}

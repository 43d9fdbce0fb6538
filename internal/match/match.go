package match

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"vada/internal/relation"
)

// Match is a scored correspondence between a source attribute and a target
// attribute. Matches are the currency between the matching and mapping
// activities (Table 1).
type Match struct {
	// SourceRel is the source relation name.
	SourceRel string
	// SourceAttr is the source attribute.
	SourceAttr string
	// TargetAttr is the target attribute.
	TargetAttr string
	// Score is the confidence in [0,1].
	Score float64
	// Method records which matcher produced the score ("name", "instance",
	// "combined").
	Method string
}

// String renders the match compactly.
func (m Match) String() string {
	return fmt.Sprintf("%s.%s≈%s (%.2f, %s)", m.SourceRel, m.SourceAttr, m.TargetAttr, m.Score, m.Method)
}

// MatchSchemas runs the name-based schema matcher over every (source attr,
// target attr) pair, in source then target order. This transducer's only
// input dependency is the two schemas (Table 1, row "Schema Matching").
//
// A pair's score is the ensemble name similarity: the maximum of
// Jaro-Winkler and bigram Dice over the normalised names and Jaccard over
// their token sets, raised to 0.85 when one normalised name contains the
// other, and 1 when they are equal. Each name is normalised, split into runes,
// bigrams and tokens once per call, and a pair is scored from the two
// prepared names without allocating.
func MatchSchemas(src, target relation.Schema) []Match {
	targets := make([]preparedName, len(target.Attrs))
	for i, ta := range target.Attrs {
		targets[i] = prepareName(ta.Name)
	}
	out := make([]Match, 0, len(src.Attrs)*len(target.Attrs))
	for _, sa := range src.Attrs {
		sn := prepareName(sa.Name)
		for i, ta := range target.Attrs {
			out = append(out, Match{
				SourceRel: src.Name, SourceAttr: sa.Name, TargetAttr: ta.Name,
				Score: sn.similarity(&targets[i]), Method: "name",
			})
		}
	}
	return out
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

func sqrt(f float64) float64 {
	// Newton iterations suffice for similarity use; avoids importing math
	// for a single call site... but clarity beats cleverness:
	if f <= 0 {
		return 0
	}
	x := f
	for i := 0; i < 40; i++ {
		x = (x + f/x) / 2
	}
	return x
}

// Combine merges match lists for the same (source rel, source attr, target
// attr) triple, keeping the maximum score and recording the method as
// "combined" when more than one matcher contributed.
func Combine(lists ...[]Match) []Match {
	type key struct{ rel, sa, ta string }
	best := map[key]Match{}
	contributors := map[key]int{}
	var order []key
	for _, list := range lists {
		for _, m := range list {
			k := key{m.SourceRel, m.SourceAttr, m.TargetAttr}
			if _, ok := best[k]; !ok {
				order = append(order, k)
			}
			contributors[k]++
			if cur, ok := best[k]; !ok || m.Score > cur.Score {
				best[k] = m
			}
		}
	}
	out := make([]Match, 0, len(order))
	for _, k := range order {
		m := best[k]
		if contributors[k] > 1 {
			m.Method = "combined"
		}
		out = append(out, m)
	}
	return out
}

// Threshold is the score a match needs to become a correspondence: what
// mapping generation is handed, and the floor of the advisor's "unmatched
// target" suggestions.
const Threshold = 0.6

// SelectOneToOne keeps, per source relation, at most one match per source
// attribute and per target attribute, greedily by descending score, dropping
// matches below Threshold. Ties break deterministically.
func SelectOneToOne(matches []Match) []Match {
	var sorted []Match
	for _, m := range matches {
		if !(m.Score < Threshold) {
			sorted = append(sorted, m)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		a, b := sorted[i], sorted[j]
		if a.SourceRel != b.SourceRel {
			return a.SourceRel < b.SourceRel
		}
		if a.SourceAttr != b.SourceAttr {
			return a.SourceAttr < b.SourceAttr
		}
		return a.TargetAttr < b.TargetAttr
	})
	type attr struct{ rel, name string }
	usedSrc := map[attr]bool{}
	usedTgt := map[attr]bool{}
	var out []Match
	for _, m := range sorted {
		ks, kt := attr{m.SourceRel, m.SourceAttr}, attr{m.SourceRel, m.TargetAttr}
		if usedSrc[ks] || usedTgt[kt] {
			continue
		}
		usedSrc[ks], usedTgt[kt] = true, true
		out = append(out, m)
	}
	return out
}

// Correspondence is a selected match without its evidence: which source
// attribute populates which target attribute. A mapping is built from no more.
type Correspondence struct {
	SourceRel, SourceAttr, TargetAttr string
}

// Correspondences is SelectOneToOne's choice as correspondences, ordered by
// source relation, source attribute and target attribute: match lists that
// select the same pairs give equal slices, whatever their scores.
func Correspondences(matches []Match) []Correspondence {
	var out []Correspondence
	for _, m := range SelectOneToOne(matches) {
		out = append(out, Correspondence{m.SourceRel, m.SourceAttr, m.TargetAttr})
	}
	slices.SortFunc(out, func(a, b Correspondence) int {
		return cmp.Or(strings.Compare(a.SourceRel, b.SourceRel),
			strings.Compare(a.SourceAttr, b.SourceAttr), strings.Compare(a.TargetAttr, b.TargetAttr))
	})
	return out
}

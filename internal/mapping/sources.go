package mapping

import (
	"sort"

	"vada/internal/mcda"
	"vada/internal/quality"
)

// SourceCandidate pairs a source relation name with its quality report, for
// source selection — the paper's §2.3 alternative to mapping selection
// ("allows a source selection or a mapping selection transducer to run that
// selects sources or mappings, taking into account the user context").
type SourceCandidate struct {
	// Source is the source relation name.
	Source string
	// Report is the quality assessment of the source.
	Report quality.Report
}

// SelectSources ranks sources by the user-context-weighted score of their
// quality criteria and returns those within minScore, best first. With empty
// weights the default score (mean completeness blended with consistency) is
// used, as for mappings. Ties break lexicographically.
func SelectSources(cands []SourceCandidate, weights map[mcda.Criterion]float64, minScore float64) []SourceCandidate {
	score := func(c SourceCandidate) float64 {
		if len(weights) > 0 {
			return mcda.Score(weights, c.Report.Criteria())
		}
		return c.Report.DefaultScore()
	}
	ranked := append([]SourceCandidate(nil), cands...)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := score(ranked[i]), score(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].Source < ranked[j].Source
	})
	out := ranked[:0:0]
	for _, c := range ranked {
		if score(c) >= minScore {
			out = append(out, c)
		}
	}
	return out
}

// TopKSources keeps the best k sources under the given weights.
func TopKSources(cands []SourceCandidate, weights map[mcda.Criterion]float64, k int) []SourceCandidate {
	ranked := SelectSources(cands, weights, -1)
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}

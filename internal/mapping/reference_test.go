package mapping

// The reference implementation of mapping generation: Generate as it was
// before the sources were profiled apart from the matches and before it was
// handed correspondences instead of matches, kept as the oracle of
// TestGenerateFromProfile. It discovers the inclusion dependencies of the
// sources that reach the overlap bound on every call, and selects the 1:1
// matches itself, in score order; only the mapping builders, which read no
// score, are handed what they are handed now.

import (
	"sort"

	"vada/internal/match"
	"vada/internal/relation"
)

// referenceGenerate is Generate as it was. Test-only.
func referenceGenerate(target relation.Schema, sources []*relation.Relation, matches []match.Match, b genBounds) []Mapping {
	srcByName := map[string]*relation.Relation{}
	var srcNames []string
	for _, s := range sources {
		srcByName[s.Schema.Name] = s
		srcNames = append(srcNames, s.Schema.Name)
	}
	sort.Strings(srcNames)

	// Per-source selected matches above threshold.
	perSource := map[string][]match.Match{}
	for _, m := range match.SelectOneToOne(b.selectable(matches)) {
		if _, ok := srcByName[m.SourceRel]; !ok {
			continue
		}
		perSource[m.SourceRel] = append(perSource[m.SourceRel], m)
	}

	var ids []InclusionDep
	for _, id := range DiscoverInclusionDeps(sources) {
		if id.Overlap >= b.minOverlap {
			ids = append(ids, id)
		}
	}

	var out []Mapping
	for _, base := range srcNames {
		ms := perSource[base]
		if len(ms) == 0 || len(ms) < min(b.minCoverage, target.Arity()) {
			continue
		}
		bm := buildBaseMapping(target, srcByName[base], correspondencesOf(ms))
		out = append(out, bm)

		// Join extensions: enrichment sources covering target attrs the
		// base does not cover, reachable through an inclusion dependency
		// from a *matched* base attribute.
		for _, enrich := range srcNames {
			if enrich == base {
				continue
			}
			ems := perSource[enrich]
			if len(ems) == 0 {
				continue
			}
			covered := map[string]bool{}
			for _, m := range ms {
				covered[m.TargetAttr] = true
			}
			var gain []match.Match
			for _, em := range ems {
				if !covered[em.TargetAttr] {
					gain = append(gain, em)
				}
			}
			if len(gain) == 0 {
				continue
			}
			join := findJoin(ids, base, enrich)
			if join == nil {
				continue
			}
			jm := buildJoinMapping(target, srcByName[base], correspondencesOf(ms), srcByName[enrich], correspondencesOf(gain), *join)
			out = append(out, jm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// correspondencesOf drops the evidence of matches, keeping their order.
func correspondencesOf(ms []match.Match) []match.Correspondence {
	out := make([]match.Correspondence, len(ms))
	for i, m := range ms {
		out[i] = match.Correspondence{SourceRel: m.SourceRel, SourceAttr: m.SourceAttr, TargetAttr: m.TargetAttr}
	}
	return out
}

package mapping

// The reference implementation of mapping generation: Generate as it was
// before the sources were profiled apart from the matches, kept verbatim as
// the oracle of TestGenerateFromProfile. It discovers the inclusion
// dependencies of the sources, at the options' overlap threshold, on every
// call.

import (
	"sort"

	"vada/internal/match"
	"vada/internal/relation"
)

// referenceGenerate is Generate as it was. Test-only.
func referenceGenerate(target relation.Schema, sources []*relation.Relation, matches []match.Match, opts GenOptions) []Mapping {
	srcByName := map[string]*relation.Relation{}
	var srcNames []string
	for _, s := range sources {
		srcByName[s.Schema.Name] = s
		srcNames = append(srcNames, s.Schema.Name)
	}
	sort.Strings(srcNames)

	// Per-source selected matches above threshold.
	perSource := map[string][]match.Match{}
	for _, m := range match.SelectOneToOne(matches, opts.MatchThreshold) {
		if _, ok := srcByName[m.SourceRel]; !ok {
			continue
		}
		perSource[m.SourceRel] = append(perSource[m.SourceRel], m)
	}

	ids := DiscoverInclusionDeps(sources, opts.JoinMinOverlap)

	var out []Mapping
	for _, base := range srcNames {
		ms := perSource[base]
		if len(ms) == 0 || len(ms) < min(opts.MinCoverage, target.Arity()) {
			continue
		}
		bm := buildBaseMapping(target, srcByName[base], ms)
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
			jm := buildJoinMapping(target, srcByName[base], ms, srcByName[enrich], gain, *join)
			out = append(out, jm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Package mapping implements VADA's mapping activity: generating candidate
// schema mappings from matches (Table 1 row "Mapping Generation"), executing
// them through the Vadalog reasoner (mappings *are* Vadalog programs, §2),
// and selecting among them with quality metrics weighted by the user context
// (row "Mapping Selection", §2.2).
package mapping

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"vada/internal/match"
	"vada/internal/mcda"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/vadalog"
)

// ProvenanceAttr is the extra column mapping execution appends to record
// which mapping/base source produced each tuple.
const ProvenanceAttr = "_src"

// Mapping is one candidate schema mapping: a Vadalog program deriving
// target-shaped tuples from one base source, optionally joined with
// enrichment sources.
type Mapping struct {
	// ID uniquely names the mapping (e.g. "m_rightmove+deprivation").
	ID string
	// Target is the target schema the mapping populates.
	Target relation.Schema
	// BaseSource is the relation the mapping ranges over.
	BaseSource string
	// JoinSources lists enrichment relations joined in (possibly empty).
	JoinSources []string
	// Program is the compiled Vadalog source text.
	Program string
	// AttrProvenance maps each populated target attribute to
	// "sourceRel.attr".
	AttrProvenance map[string]string
}

// Covered lists the target attributes this mapping populates, sorted.
func (m Mapping) Covered() []string {
	out := make([]string, 0, len(m.AttrProvenance))
	for a := range m.AttrProvenance {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// String renders a summary.
func (m Mapping) String() string {
	return fmt.Sprintf("%s: %s→%s covering {%s}", m.ID, m.BaseSource, m.Target.Name,
		strings.Join(m.Covered(), ","))
}

// InclusionDep is a discovered joinable attribute pair: values of
// (FromRel, FromAttr) are largely contained in (ToRel, ToAttr), and
// (ToRel, ToAttr) is key-like, so the join is lossless on the from side.
type InclusionDep struct {
	FromRel, FromAttr string
	ToRel, ToAttr     string
	// Overlap is |from ∩ to| / |from| over distinct normalised values.
	Overlap float64
	// ToUniqueness is distinct(to) / rows(to): 1.0 means the target
	// attribute is a key of its relation.
	ToUniqueness float64
}

// keyLikeThreshold is the minimal uniqueness of the join target: joining
// into a non-key attribute multiplies rows (a postcode identifies one
// deprivation record, but many portal listings).
const keyLikeThreshold = 0.95

// DiscoverInclusionDeps profiles all attribute pairs across the given
// relations and returns, with its containment, every pair whose target
// attribute is key-like in its relation. Comparison is over
// folded distinct values (relation.Fold; "" apart), capped at
// match.InstanceSample values per attribute: the first ones, which the folded
// column view holds in row order. The relations must be frozen.
func DiscoverInclusionDeps(rels []*relation.Relation) []InclusionDep {
	type colKey struct{ rel, attr string }
	type sample struct {
		values []string
		index  map[string]int32 // holds values at codes up to last
		last   int32
	}
	cols := map[colKey]sample{}
	uniq := map[colKey]float64{}
	var keys []colKey
	for _, r := range rels {
		for i, a := range r.Schema.Attrs {
			f := r.Folded(i)
			values, last := f.Head(match.InstanceSample)
			if len(values) == 0 {
				continue
			}
			empty, hasEmpty := f.Index[""]
			if !hasEmpty {
				empty = -1
			}
			nonEmpty := 0 // rows with a value that does not fold to ""
			for _, c := range f.Codes {
				if c >= 0 && c != empty {
					nonEmpty++
				}
			}
			distinct := len(f.Values)
			if hasEmpty {
				distinct--
			}
			k := colKey{r.Schema.Name, a.Name}
			cols[k] = sample{values, f.Index, last}
			uniq[k] = float64(distinct) / float64(nonEmpty)
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rel != keys[j].rel {
			return keys[i].rel < keys[j].rel
		}
		return keys[i].attr < keys[j].attr
	})
	var out []InclusionDep
	for _, from := range keys {
		for _, to := range keys {
			if from.rel == to.rel {
				continue
			}
			if uniq[to] < keyLikeThreshold {
				continue
			}
			fs, ts := cols[from], cols[to]
			inter := 0
			for _, v := range fs.values {
				if c, ok := ts.index[v]; ok && c <= ts.last {
					inter++
				}
			}
			out = append(out, InclusionDep{
				FromRel: from.rel, FromAttr: from.attr,
				ToRel: to.rel, ToAttr: to.attr,
				Overlap: float64(inter) / float64(len(fs.values)), ToUniqueness: uniq[to],
			})
		}
	}
	return out
}

// joinMinOverlap is the containment an inclusion dependency needs for
// Generate to join along it.
const joinMinOverlap = 0.25

// SourceProfile is what Generate needs of the source relations alone, whatever
// the matches: which attribute pairs join them. Taking it reads every value of
// every source; taken once, it serves every Generate until a source is replaced.
type SourceProfile struct {
	sources []*relation.Relation
	deps    []InclusionDep // every key-like pair
}

// ProfileSources profiles the sources for Generate.
func ProfileSources(sources []*relation.Relation) *SourceProfile {
	return &SourceProfile{sources: slices.Clone(sources), deps: DiscoverInclusionDeps(sources)}
}

// Of reports whether p (which may be nil) is the profile of these very
// relations: relations that are shared are never written to, so identity is content.
func (p *SourceProfile) Of(sources []*relation.Relation) bool {
	return p != nil && slices.Equal(p.sources, sources)
}

// Generate produces candidate mappings from 1:1 correspondences over the
// profiled sources:
//
//  1. every source matching at least one and ≥ min(minCoverage, target
//     arity) target attributes becomes a base mapping (projection with
//     renaming, unmatched target attrs null);
//  2. every base mapping is extended with joins to other sources that match
//     further target attributes, when an inclusion dependency links a
//     matched attribute of the base source to an attribute of the
//     enrichment source with a containment of joinMinOverlap at least
//     (e.g. rightmove.postcode ⊆ deprivation.postcode, pulling in crimerank).
//
// The paper's "mapping generation transducer may start to evaluate when
// matches have been created" is exactly this function's input dependency. Which
// matches count is decided before it, at match.Threshold; their scores and
// methods are no part of a mapping, so mappings change only with the
// correspondences.
func (p *SourceProfile) Generate(target relation.Schema, corrs []match.Correspondence, minCoverage int) []Mapping {
	return p.generate(target, corrs, minCoverage, joinMinOverlap)
}

// generate is Generate joining along inclusion dependencies of minOverlap.
func (p *SourceProfile) generate(target relation.Schema, corrs []match.Correspondence, minCoverage int, minOverlap float64) []Mapping {
	srcByName := map[string]*relation.Relation{}
	var srcNames []string
	for _, s := range p.sources {
		srcByName[s.Schema.Name] = s
		srcNames = append(srcNames, s.Schema.Name)
	}
	sort.Strings(srcNames)

	perSource := map[string][]match.Correspondence{}
	for _, c := range corrs {
		if _, ok := srcByName[c.SourceRel]; !ok {
			continue
		}
		perSource[c.SourceRel] = append(perSource[c.SourceRel], c)
	}

	var out []Mapping
	for _, base := range srcNames {
		ms := perSource[base]
		if len(ms) == 0 || len(ms) < min(minCoverage, target.Arity()) {
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
			var gain []match.Correspondence
			for _, em := range ems {
				if !covered[em.TargetAttr] {
					gain = append(gain, em)
				}
			}
			if len(gain) == 0 {
				continue
			}
			join := findJoin(p.deps, base, enrich)
			if join == nil || join.Overlap < minOverlap {
				continue
			}
			jm := buildJoinMapping(target, srcByName[base], ms, srcByName[enrich], gain, *join)
			out = append(out, jm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// findJoin returns the best inclusion dependency from base to enrich.
func findJoin(ids []InclusionDep, base, enrich string) *InclusionDep {
	var best *InclusionDep
	for i, id := range ids {
		if id.FromRel != base || id.ToRel != enrich {
			continue
		}
		if best == nil || id.Overlap > best.Overlap {
			best = &ids[i]
		}
	}
	return best
}

// varFor derives a Vadalog variable name for an attribute position.
func varFor(rel string, idx int) string {
	return fmt.Sprintf("V%s%d", strings.ToUpper(rel[:1]), idx)
}

// buildBaseMapping compiles a projection mapping into Vadalog.
func buildBaseMapping(target relation.Schema, src *relation.Relation, ms []match.Correspondence) Mapping {
	srcName := src.Schema.Name
	// Body atom: src(V0, V1, ..., Vm) positionally.
	bodyVars := make([]string, src.Schema.Arity())
	for i := range bodyVars {
		bodyVars[i] = varFor(srcName, i)
	}
	// Head args: matched target attrs take the source var, others null.
	matchFor := map[string]string{} // target attr -> source attr
	prov := map[string]string{}
	for _, m := range ms {
		matchFor[m.TargetAttr] = m.SourceAttr
		prov[m.TargetAttr] = srcName + "." + m.SourceAttr
	}
	headArgs := make([]string, 0, target.Arity()+1)
	for _, ta := range target.Attrs {
		if sa, ok := matchFor[ta.Name]; ok {
			headArgs = append(headArgs, bodyVars[src.Schema.AttrIndex(sa)])
		} else {
			headArgs = append(headArgs, "null")
		}
	}
	headArgs = append(headArgs, fmt.Sprintf("%q", srcName)) // provenance
	program := fmt.Sprintf("%s(%s) :- %s(%s).\n",
		target.Name, strings.Join(headArgs, ", "),
		srcName, strings.Join(bodyVars, ", "))
	return Mapping{
		ID: "m_" + srcName, Target: target, BaseSource: srcName,
		Program: program, AttrProvenance: prov,
	}
}

// buildJoinMapping compiles a base ⋈ enrichment mapping into Vadalog. The
// join is an equality between the inclusion dependency's endpoints; the
// enrichment is outer-ish in spirit but compiled as two rules — one joined,
// one base-only guarded by "not enrichmentKey" — so unmatched base tuples
// still appear with nulls (the Datalog rendering of a left join).
func buildJoinMapping(target relation.Schema, base *relation.Relation, baseMs []match.Correspondence,
	enrich *relation.Relation, gainMs []match.Correspondence, join InclusionDep) Mapping {

	bName, eName := base.Schema.Name, enrich.Schema.Name
	bVars := make([]string, base.Schema.Arity())
	for i := range bVars {
		bVars[i] = varFor(bName, i)
	}
	eVars := make([]string, enrich.Schema.Arity())
	for i := range eVars {
		eVars[i] = varFor("x"+eName, i)
	}
	// Unify join columns by sharing the base variable.
	ji := enrich.Schema.AttrIndex(join.ToAttr)
	bi := base.Schema.AttrIndex(join.FromAttr)
	eVars[ji] = bVars[bi]

	matchFor := map[string]string{}
	prov := map[string]string{}
	for _, m := range baseMs {
		matchFor[m.TargetAttr] = "b:" + m.SourceAttr
		prov[m.TargetAttr] = bName + "." + m.SourceAttr
	}
	for _, m := range gainMs {
		matchFor[m.TargetAttr] = "e:" + m.SourceAttr
		prov[m.TargetAttr] = eName + "." + m.SourceAttr
	}
	provLit := fmt.Sprintf("%q", bName+"+"+eName)

	headJoined := make([]string, 0, target.Arity()+1)
	headBaseOnly := make([]string, 0, target.Arity()+1)
	for _, ta := range target.Attrs {
		spec, ok := matchFor[ta.Name]
		if !ok {
			headJoined = append(headJoined, "null")
			headBaseOnly = append(headBaseOnly, "null")
			continue
		}
		kind, attr := spec[:2], spec[2:]
		if kind == "b:" {
			v := bVars[base.Schema.AttrIndex(attr)]
			headJoined = append(headJoined, v)
			headBaseOnly = append(headBaseOnly, v)
		} else {
			headJoined = append(headJoined, eVars[enrich.Schema.AttrIndex(attr)])
			headBaseOnly = append(headBaseOnly, "null")
		}
	}
	headJoined = append(headJoined, provLit)
	headBaseOnly = append(headBaseOnly, provLit)

	// Helper predicate for the anti-join guard.
	keyPred := fmt.Sprintf("%s_haskey", eName)
	var b strings.Builder
	fmt.Fprintf(&b, "%s(K) :- %s(%s).\n", keyPred, eName, strings.Join(keyArgs(eVars, ji, "K"), ", "))
	fmt.Fprintf(&b, "%s(%s) :- %s(%s), %s(%s).\n",
		target.Name, strings.Join(headJoined, ", "),
		bName, strings.Join(bVars, ", "),
		eName, strings.Join(eVars, ", "))
	fmt.Fprintf(&b, "%s(%s) :- %s(%s), not %s(%s).\n",
		target.Name, strings.Join(headBaseOnly, ", "),
		bName, strings.Join(bVars, ", "),
		keyPred, bVars[bi])

	return Mapping{
		ID: "m_" + bName + "+" + eName, Target: target,
		BaseSource: bName, JoinSources: []string{eName},
		Program: b.String(), AttrProvenance: prov,
	}
}

// keyArgs renders the enrichment atom with only the join column bound to
// keyVar and all other positions anonymous.
func keyArgs(eVars []string, ji int, keyVar string) []string {
	out := make([]string, len(eVars))
	for i := range eVars {
		if i == ji {
			out[i] = keyVar
		} else {
			out[i] = "_"
		}
	}
	return out
}

// Execute runs the mapping over the given source relations and returns a
// relation shaped as Target plus the ProvenanceAttr column.
func Execute(m Mapping, sources map[string]*relation.Relation, engine *vadalog.Engine) (*relation.Relation, error) {
	prog, err := vadalog.Parse(m.Program)
	if err != nil {
		return nil, fmt.Errorf("mapping %s: parsing program: %w", m.ID, err)
	}
	edb := vadalog.MapEDB{}
	for name, rel := range sources {
		edb[name] = rel.Tuples
	}
	res, err := engine.Run(prog, edb)
	if err != nil {
		return nil, fmt.Errorf("mapping %s: %w", m.ID, err)
	}
	attrs := append([]relation.Attribute(nil), m.Target.Attrs...)
	attrs = append(attrs, relation.Attribute{Name: ProvenanceAttr, Type: relation.KindString})
	out := relation.New(relation.Schema{Name: m.Target.Name, Attrs: attrs})
	for _, t := range res.Facts(m.Target.Name) {
		if len(t) != len(attrs) {
			return nil, fmt.Errorf("mapping %s: derived arity %d, want %d", m.ID, len(t), len(attrs))
		}
		out.Tuples = append(out.Tuples, t) // the run's own tuple, and the run ends here
	}
	return out, nil
}

// Candidate pairs a mapping with the quality report of its result, ready for
// selection.
type Candidate struct {
	// Mapping is the candidate mapping.
	Mapping Mapping
	// Report is the quality assessment of the mapping's result.
	Report quality.Report
}

// SelectByUserContext ranks candidates by the weighted-sum score of their
// quality criteria under the user-context weights. With empty weights,
// candidates are scored by mean completeness plus consistency (the
// no-user-context default) so bootstrap still has a deterministic order.
func SelectByUserContext(cands []Candidate, weights map[mcda.Criterion]float64) []Candidate {
	score := func(c Candidate) float64 {
		if len(weights) > 0 {
			return mcda.Score(weights, c.Report.Criteria())
		}
		return c.Report.DefaultScore()
	}
	ranked := append([]Candidate(nil), cands...)
	sort.SliceStable(ranked, func(i, j int) bool {
		si, sj := score(ranked[i]), score(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].Mapping.ID < ranked[j].Mapping.ID
	})
	return ranked
}

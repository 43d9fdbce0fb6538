package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"vada/internal/cfd"
	"vada/internal/datagen"
	"vada/internal/extract"
	"vada/internal/feedback"
	"vada/internal/fusion"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/match"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/transducer"
)

// registerStandardSuite wires the standard transducers. Their declared input
// dependencies implement Table 1 of the paper plus the §2.3 walk-throughs;
// all bodies are idempotent (replace-if-changed), which is what lets the
// orchestrator quiesce.
//
// The three transducers whose output md_match is computed from are registered
// as matchWriters: each republishes md_match in the body that derives its own
// share, so md_match always equals what any of them would publish and none
// needs to run because another did (TestMatchCellWritersRepublish pins this).
func (w *Wrangler) registerStandardSuite() {
	w.reg.MustRegister(
		w.extractionTransducer(),
		matchWriter{w.feedbackTransducer()},
		matchWriter{w.schemaMatchingTransducer()},
		matchWriter{w.instanceMatchingTransducer()},
		w.cfdLearningTransducer(),
		w.mappingGenerationTransducer(),
		w.mappingExecutionTransducer(),
		w.repairTransducer(),
		w.qualityTransducer(),
		w.selectionTransducer(),
		w.fusionTransducer(),
	)
}

// matchWriter is a transducer that reads md_match only to rewrite it from its
// own inputs (republishMatches): md_match is not an input of it.
type matchWriter struct{ transducer.Transducer }

// Inputs implements transducer.InputDeclarer.
func (matchWriter) Inputs(read []kb.Key) []kb.Key {
	return slices.DeleteFunc(read, func(key kb.Key) bool { return key == kb.FactsKey(PredMatch) })
}

// republishMatches rewrites md_match: the name-based and instance-based
// matches combined, their scores revised by the per-source accuracy feedback
// assimilation estimated. A matchWriter calls it after deriving its own share;
// the shares are loaded through the wrangler's own handle, which records
// nothing — the way a body reads what is not an input of it.
func (w *Wrangler) republishMatches(k *kb.KB, rep *transducer.Report) {
	combined := match.Combine(cellNameMatches.get(w.KB), cellInstMatches.get(w.KB))
	revised := feedback.ReviseMatchScores(combined, accuracyBySource(w.KB))
	a, r := replaceFacts(k, PredMatch, matchFacts(revised))
	rep.FactsAsserted += a
	rep.FactsRetracted += r
}

func matchFacts(ms []match.Match) []relation.Tuple {
	out := make([]relation.Tuple, 0, len(ms))
	for _, m := range ms {
		out = append(out, relation.NewTuple(m.SourceRel, m.SourceAttr, m.TargetAttr, m.Score, m.Method))
	}
	return out
}

// matchesFromFacts is matchFacts' inverse over what k holds in md_match, in
// storage order.
func matchesFromFacts(k *kb.KB) []match.Match {
	facts := k.Facts(PredMatch)
	out := make([]match.Match, 0, len(facts))
	for _, f := range facts {
		if len(f) != 5 {
			continue
		}
		out = append(out, match.Match{SourceRel: f[0].Str(), SourceAttr: f[1].Str(),
			TargetAttr: f[2].Str(), Score: f[3].FloatVal(), Method: f[4].Str()})
	}
	return out
}

// accuracyBySource reads md_accuracy(source, attr, accuracy), feedback
// assimilation's estimate, into source → attribute → accuracy.
func accuracyBySource(k *kb.KB) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, f := range k.Facts(PredAccuracy) {
		if len(f) != 3 {
			continue
		}
		src := f[0].Str()
		if out[src] == nil {
			out[src] = map[string]float64{}
		}
		out[src][f[1].Str()] = f[2].FloatVal()
	}
	return out
}

// referenceNames lists the data-context relations in the order they were
// added: dc_reference is never retracted, so storage order is assertion order.
func referenceNames(k *kb.KB) []string {
	var out []string
	for _, f := range k.Facts(PredReference) {
		if len(f) == 1 {
			out = append(out, f[0].Str())
		}
	}
	return out
}

// sourceRelations returns the current extracted source relations by name.
func (w *Wrangler) sourceRelations(k *kb.KB) map[string]*relation.Relation {
	out := map[string]*relation.Relation{}
	for _, name := range k.RelationNames(RelSourcePrefix) {
		rel := k.Relation(name)
		if rel != nil {
			out[strings.TrimPrefix(name, RelSourcePrefix)] = rel
		}
	}
	return out
}

// primaryReference returns the first data-context relation, or nil.
func (w *Wrangler) primaryReference(k *kb.KB) *relation.Relation {
	names := referenceNames(k)
	if len(names) == 0 {
		return nil
	}
	return k.Relation(RelContextPrefix + names[0])
}

// extractionTransducer extracts registered-but-unextracted sources: web
// sources via wrapper induction over their pages, direct sources by copying.
func (w *Wrangler) extractionTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "web-extraction",
		TActivity: "extraction",
		Dep:       transducer.Dependency{Query: "?- src_registered(S), not src_extracted(S)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			srcs := cellSources.get(k)
			for _, f := range k.Facts(PredSourceRegistered) {
				name := f[0].Str()
				if k.Has(PredSourceExtracted, relation.NewTuple(name)) {
					continue
				}
				src, registered := srcs[name]

				var rel *relation.Relation
				switch {
				case src.direct != nil:
					rel = src.direct
				case registered:
					wr, err := extract.InduceWrapper(src.pages[0], src.examples)
					if err != nil {
						return rep, fmt.Errorf("extracting %s: %w", name, err)
					}
					extracted, _, err := wr.Extract(src.pages, src.schema)
					if err != nil {
						return rep, fmt.Errorf("extracting %s: %w", name, err)
					}
					rel = extracted
					rep.Notes = append(rep.Notes, fmt.Sprintf("induced %s", wr))
				default:
					continue
				}
				k.PutRelation(RelSourcePrefix+name, rel)
				rep.RelationsWritten = append(rep.RelationsWritten, RelSourcePrefix+name)
				for _, pred := range []string{PredSourceExtracted, PredSourceSchema, PredSourceInstances} {
					if k.Assert(pred, relation.NewTuple(name)) {
						rep.FactsAsserted++
					}
				}
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d tuples", name, rel.Cardinality()))
			}
			return rep, nil
		},
	}
}

// feedbackTransducer assimilates feedback: per-source accuracy (the paper's
// mapping-evaluation step that revises match scores), plausibility range
// rules, and accuracy facts for the quality transducer.
func (w *Wrangler) feedbackTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "feedback-assimilation",
		TActivity: "feedback",
		Dep: transducer.Dependency{
			Query: "?- fb_item(S, P, A, C).",
			Guard: func(k *kb.KB) bool { return k.HasRelation(RelResult) },
		},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			res := k.Relation(RelResult)
			items := feedbackItems(k)

			rules := feedback.LearnRangeRules(items, res, rangeRuleSupport, nil)
			derive(w, cellRangeRules, rules)

			var accFacts []relation.Tuple
			for src, byAttr := range feedback.AccuracyBySource(items, res, mapping.ProvenanceAttr, nil) {
				for attr, a := range byAttr {
					accFacts = append(accFacts, relation.NewTuple(src, attr, a))
				}
			}
			a, r := replaceFacts(k, PredAccuracy, accFacts)
			rep.FactsAsserted += a
			rep.FactsRetracted += r

			// Republish revised matches so mapping generation re-fires when
			// scores changed (the §2.3 feedback walk-through).
			w.republishMatches(k, &rep)

			for _, rule := range rules {
				rep.Notes = append(rep.Notes, "learned "+rule.String())
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf("%d feedback items assimilated", len(items)))
			return rep, nil
		},
	}
}

// schemaMatchingTransducer matches source schemas against the target schema
// by name (Table 1: needs source and target schemas).
func (w *Wrangler) schemaMatchingTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "schema-matching",
		TActivity: "matching",
		Dep:       transducer.Dependency{Query: "?- src_schema(S), uc_target_schema(T)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			target, ok := targetSchema(k)
			if !ok {
				return rep, fmt.Errorf("schema matching: target schema missing")
			}
			var all []match.Match
			srcs := w.sourceRelations(k)
			names := sortedKeys(srcs)
			for _, name := range names {
				all = append(all, match.MatchSchemas(srcs[name].Schema, target)...)
			}
			derive(w, cellNameMatches, all)
			w.republishMatches(k, &rep)
			rep.Notes = append(rep.Notes, fmt.Sprintf("%d name-based match hypotheses over %d sources", len(all), len(names)))
			return rep, nil
		},
	}
}

// instanceMatchingTransducer matches source instances against data-context
// instances (Table 1: needs source and target instances).
func (w *Wrangler) instanceMatchingTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "instance-matching",
		TActivity: "matching",
		Dep:       transducer.Dependency{Query: "?- src_instances(S), dc_instances(D)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			var refs []*relation.Relation
			for _, name := range referenceNames(k) {
				if ref := k.Relation(RelContextPrefix + name); ref != nil && ref.Schema.Arity() > 0 {
					refs = append(refs, ref)
				}
			}
			if len(refs) == 0 {
				return rep, nil
			}
			// The data-context columns are profiled once for all sources, from
			// the folded views the knowledge base's relations share.
			profiles := match.ProfileInstances(refs...)
			var all []match.Match
			srcs := w.sourceRelations(k)
			for _, name := range sortedKeys(srcs) {
				all = append(all, profiles.Match(srcs[name])...)
			}
			derive(w, cellInstMatches, all)
			w.republishMatches(k, &rep)
			rep.Notes = append(rep.Notes, fmt.Sprintf("%d instance-based match hypotheses", len(all)))
			return rep, nil
		},
	}
}

// cfdLearningTransducer mines CFDs from the data context (Table 1: needs
// data examples).
func (w *Wrangler) cfdLearningTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "cfd-learning",
		TActivity: "quality-rules",
		Dep:       transducer.Dependency{Query: "?- dc_reference(R)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			var mined []cfd.CFD
			seen := map[string]bool{}
			for _, name := range referenceNames(k) {
				ref := k.Relation(RelContextPrefix + name)
				if ref == nil {
					continue
				}
				for _, c := range cfd.Mine(ref, cfd.DefaultMineOptions()) {
					if !seen[c.Key()] {
						seen[c.Key()] = true
						mined = append(mined, c)
					}
				}
			}
			derive(w, cellCFDs, mined)
			var facts []relation.Tuple
			for _, c := range mined {
				facts = append(facts, relation.NewTuple(c.Key(), c.Support, c.Confidence))
			}
			a, r := replaceFacts(k, PredCFD, facts)
			rep.FactsAsserted += a
			rep.FactsRetracted += r
			rep.Notes = append(rep.Notes, fmt.Sprintf("%d CFDs learned from data context", len(mined)))
			return rep, nil
		},
	}
}

// mappingGenerationTransducer generates candidate mappings from matches
// (Table 1: needs matches — "may start to evaluate when matches have been
// created").
func (w *Wrangler) mappingGenerationTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "mapping-generation",
		TActivity: "mapping",
		Dep:       transducer.Dependency{Query: "?- md_match(S, A, T, Sc, M)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			target, _ := targetSchema(k)
			srcs := w.sourceRelations(k)
			rels := make([]*relation.Relation, 0, len(srcs))
			for _, name := range sortedKeys(srcs) {
				rels = append(rels, srcs[name])
			}
			// The join profile is a property of the sources alone: it is kept
			// while they are the relations it was taken of.
			joins := cellJoins.get(w.KB)
			if !joins.Of(rels) {
				joins = mapping.ProfileSources(rels)
				cellJoins.set(w.KB, joins)
			}
			opts := mapping.DefaultGenOptions()
			opts.MinCoverage = w.minCoverage
			gen := joins.Generate(target, matchesFromFacts(k), opts)
			derive(w, cellMappings, gen)
			var facts []relation.Tuple
			for _, m := range gen {
				facts = append(facts, relation.NewTuple(m.ID, m.BaseSource))
			}
			a, r := replaceFacts(k, PredMapping, facts)
			rep.FactsAsserted += a
			rep.FactsRetracted += r
			for _, m := range gen {
				rep.Notes = append(rep.Notes, m.String())
			}
			return rep, nil
		},
	}
}

// execution is what a mapping was last executed from, and the row count
// published: its raw result is a function of the program, the target schema and
// the source relations it names (frozen in the knowledge base: the same
// relations are the same rows), and of nothing else.
type execution struct {
	program string
	target  relation.Schema
	sources []*relation.Relation // base source, then join sources
	rows    int
}

func (e execution) sameInputs(o execution) bool {
	return e.program == o.program && e.target.Equal(o.target) && slices.Equal(e.sources, o.sources)
}

// mappingExecutionTransducer executes the candidate mappings whose program or
// sources moved since it last executed them, or whose result is missing. The
// others keep the res_<id> they have, so repairs applied downstream survive
// re-runs with unchanged inputs.
func (w *Wrangler) mappingExecutionTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "mapping-execution",
		TActivity: "execution",
		Dep:       transducer.Dependency{Query: "?- md_mapping(Id, B)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			srcs := w.sourceRelations(k)
			mappings := cellMappings.get(k)

			// Stored on every return: a failing mapping loses none before it.
			memo := map[string]execution{}
			maps.Copy(memo, cellExecuted.get(w.KB))
			defer func() { cellExecuted.set(w.KB, memo) }()

			var mappedFacts []relation.Tuple
			executed := 0
			for _, m := range mappings {
				name := RelResultPrefix + m.ID
				from := execution{program: m.Program, target: m.Target, sources: []*relation.Relation{srcs[m.BaseSource]}}
				for _, join := range m.JoinSources {
					from.sources = append(from.sources, srcs[join])
				}
				// HasRelation first: what a body reads must not depend on what
				// it remembers.
				if last, ok := memo[m.ID]; !k.HasRelation(name) || !ok || !last.sameInputs(from) {
					res, err := mapping.Execute(m, srcs, w.engine)
					if err != nil {
						return rep, err
					}
					k.PutRelation(name, res)
					rep.RelationsWritten = append(rep.RelationsWritten, name)
					from.rows = res.Cardinality()
					memo[m.ID] = from
					executed++
				}
				mappedFacts = append(mappedFacts, relation.NewTuple(m.ID, memo[m.ID].rows))
			}
			// Drop results of mappings that no longer exist.
			dropped := 0
			for _, name := range k.RelationNames(RelResultPrefix) {
				id := strings.TrimPrefix(name, RelResultPrefix)
				if !slices.ContainsFunc(mappings, func(m mapping.Mapping) bool { return m.ID == id }) {
					k.DropRelation(name)
					rep.RelationsWritten = append(rep.RelationsWritten, name+" (dropped)")
					delete(memo, id)
					dropped++
				}
			}
			a, r := replaceFacts(k, PredMapped, mappedFacts)
			rep.FactsAsserted += a
			rep.FactsRetracted += r
			rep.Notes = append(rep.Notes, fmt.Sprintf("executed %d of %d mappings, %d dropped", executed, len(mappings), dropped))
			return rep, nil
		},
	}
}

// repairTransducer repairs mapping results against the data context using
// the learned CFDs (§2.3 and demonstration step 2).
func (w *Wrangler) repairTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "cfd-repair",
		TActivity: "repair",
		Dep:       transducer.Dependency{Query: "?- md_cfd(K, S, C), md_mapped(Id, R)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			ref := w.primaryReference(k)
			if ref == nil {
				return rep, nil
			}
			// One prepared reference serves every result relation of this run.
			prepared := cfd.PrepareReference(ref, cellCFDs.get(k), cfd.DefaultRepairOptions())
			for _, name := range k.RelationNames(RelResultPrefix) {
				res := k.Relation(name)
				if res == nil {
					continue
				}
				repaired, actions := prepared.Repair(res)
				// Postcode canonicalisation rides along with repair: the
				// reference's postcodes are clean, result postcodes may
				// carry format noise.
				actions = append(actions, canonicalisePostcodes(repaired)...)
				if len(actions) == 0 {
					continue
				}
				k.PutRelation(name, repaired)
				rep.RelationsWritten = append(rep.RelationsWritten, name)
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d repairs", name, len(actions)))
			}
			return rep, nil
		},
	}
}

// canonicalisePostcodes rewrites postcode cells into canonical form,
// reporting the changes as repair actions. It replaces rows of res — which
// must be the caller's to change, rows apart — and writes to none.
func canonicalisePostcodes(res *relation.Relation) []cfd.RepairAction {
	pi := res.Schema.AttrIndex("postcode")
	if pi < 0 {
		return nil
	}
	var actions []cfd.RepairAction
	for row := range res.Tuples {
		v := res.Tuples[row][pi]
		if v.IsNull() {
			continue
		}
		canon := datagen.CanonicalPostcode(v.String())
		if canon != v.String() {
			nv := relation.String(canon)
			actions = append(actions, cfd.RepairAction{Row: row, Attr: "postcode", Old: v, New: nv, Reason: "postcode canonicalisation"})
			res.Tuples[row] = res.Tuples[row].With(pi, nv)
		}
	}
	return actions
}

// assessment is the part of a result's quality report that is a function of
// the relation and the CFDs alone — completeness, density, consistency — with
// the relation and the CFD cell's value it was computed from: both are
// replaced, never written to, so the same ones are the same content.
type assessment struct {
	rel  *relation.Relation
	cfds []cfd.CFD
	data quality.Report
}

// sameCell reports whether a and b are one value of a slice-typed cell.
func sameCell[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// qualityTransducer assesses every mapping result, asserting metric facts
// (§2.3: "a Quality Metric transducer becomes able to run, adding quality
// metrics on sources and mappings to the knowledge base") and publishing the
// reports for mapping selection. A result and CFDs it has assessed before keep
// their data part: feedback that moved only md_accuracy costs the accuracy part.
func (w *Wrangler) qualityTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "quality-assessment",
		TActivity: "quality",
		Dep:       transducer.Dependency{Query: "?- md_mapped(Id, R)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			cfds := cellCFDs.get(k)
			acc := accuracyBySource(k)
			baseSource := map[string]string{}
			for _, m := range cellMappings.get(k) {
				baseSource[m.ID] = m.BaseSource
			}

			last, memo, reports := cellAssessed.get(w.KB), map[string]assessment{}, map[string]quality.Report{}
			var facts []relation.Tuple
			var recomputed []string
			for _, name := range k.RelationNames(RelResultPrefix) {
				res := k.Relation(name)
				if res == nil {
					continue
				}
				id := strings.TrimPrefix(name, RelResultPrefix)
				a := last[id]
				if a.rel != res || !sameCell(a.cfds, cfds) {
					a = assessment{rel: res, cfds: cfds, data: quality.Assess(res, cfds, nil)}
					recomputed = append(recomputed, id)
				}
				memo[id] = a
				var attrAcc map[string]float64
				if base, ok := baseSource[id]; ok {
					attrAcc = acc[base]
				}
				report := a.data.WithAccuracy(attrAcc)
				reports[id] = report
				for attr, v := range report.Completeness {
					if attr == mapping.ProvenanceAttr {
						continue
					}
					facts = append(facts, relation.NewTuple(id, "completeness", attr, round4(v)))
				}
				facts = append(facts, relation.NewTuple(id, "consistency", res.Schema.Name, round4(report.Consistency)))
				for attr, v := range report.Accuracy {
					facts = append(facts, relation.NewTuple(id, "accuracy", attr, round4(v)))
				}
			}
			cellAssessed.set(w.KB, memo)
			derive(w, cellReports, reports)
			a, r := replaceFacts(k, PredQuality, facts)
			rep.FactsAsserted += a
			rep.FactsRetracted += r
			rep.Notes = append(rep.Notes, fmt.Sprintf("assessed %d of %d results anew %v", len(recomputed), len(reports), recomputed))
			return rep, nil
		},
	}
}

// round4 stabilises floats stored as facts so replace-if-changed is not
// defeated by noise in the last bits.
func round4(f float64) float64 {
	return float64(int64(f*10000+0.5)) / 10000
}

// selectionTransducer selects the best mapping per base source from the
// reports quality assessment published, using the user-context weights
// (Table 1: needs quality metrics; §2.2).
func (w *Wrangler) selectionTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "mapping-selection",
		TActivity: "selection",
		Dep:       transducer.Dependency{Query: "?- md_quality(O, M, T, V)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			reports := cellReports.get(k)
			results := k.RelationNames(RelResultPrefix)

			var cands []mapping.Candidate
			for _, m := range cellMappings.get(k) {
				report, assessed := reports[m.ID]
				if !assessed {
					if slices.Contains(results, RelResultPrefix+m.ID) {
						// Never select from a partial list: the report moves
						// the cell when it comes, and selection runs then.
						rep.Notes = append(rep.Notes, "waiting for the quality report of "+m.ID)
						return rep, nil
					}
					continue // not executed yet
				}
				cands = append(cands, mapping.Candidate{Mapping: m, Report: report})
			}
			ranked := mapping.SelectByUserContext(cands, userWeights(k), 0)

			// Keep the best mapping per base source.
			chosen := map[string]bool{}
			var facts []relation.Tuple
			rank := 0
			for _, c := range ranked {
				if chosen[c.Mapping.BaseSource] {
					continue
				}
				chosen[c.Mapping.BaseSource] = true
				rank++
				facts = append(facts, relation.NewTuple(c.Mapping.ID, rank))
				rep.Notes = append(rep.Notes, fmt.Sprintf("rank %d: %s", rank, c.Mapping.ID))
			}
			a, r := replaceFacts(k, PredSelected, facts)
			rep.FactsAsserted += a
			rep.FactsRetracted += r
			return rep, nil
		},
	}
}

// fusionTransducer unions the selected mapping results, applies feedback
// corrections and learned plausibility rules, detects duplicates across
// sources and fuses them into the final result.
func (w *Wrangler) fusionTransducer() transducer.Transducer {
	return &transducer.Func{
		TName:     "duplicate-fusion",
		TActivity: "fusion",
		Dep:       transducer.Dependency{Query: "?- md_selected(Id, R)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			rep := transducer.Report{}
			// Union in selection-rank order. Facts() order is storage
			// order — dependent on assert/retract history live and on
			// snapshot sort order after a restore — and fusion's voting
			// tie-breaks follow union order, so anything else makes the
			// fused result depend on how the facts happen to be stored.
			selected := k.Facts(PredSelected)
			sort.Slice(selected, func(i, j int) bool { return selected[i][1].IntVal() < selected[j][1].IntVal() })
			var union *relation.Relation
			for _, f := range selected {
				res := k.Relation(RelResultPrefix + f[0].Str())
				if res == nil {
					continue
				}
				if union == nil {
					union = res
					continue
				}
				u, err := union.Union(res)
				if err != nil {
					return rep, err
				}
				union = u
			}
			if union == nil {
				return rep, nil
			}

			// Feedback: direct corrections, then learned plausibility rules.
			patched, nCorr := feedback.Apply(union, feedbackItems(k), nil)
			patched, nSupp := feedback.ApplyRangeRules(patched, cellRangeRules.get(k))

			// Duplicate detection across portals, then fusion: identity is
			// the same canonical postcode block and the same normalised
			// street, a score of 1 — attribute conflicts like the
			// bedroom error must not prevent two listings of the same
			// property from merging, they are exactly what fusion is there
			// to resolve. Trust comes from feedback-estimated per-source
			// accuracy when available.
			norm := func(s string) string { return datagen.CanonicalPostcode(s) }
			clusters := fusion.DetectDuplicates(patched,
				fusion.BlockByAttr(fusionBlockAttr, norm),
				identityScorer(fusionIdentityAttr), 1)
			strategy := fusion.Voting
			trust := feedback.TrustFromAccuracy(accuracyBySource(k))
			if len(trust) > 0 {
				strategy = fusion.TrustWeighted
			}
			fused := fusion.Fuse(patched, clusters, fusion.Options{
				Strategy:       strategy,
				ProvenanceAttr: mapping.ProvenanceAttr,
				Trust:          trust,
			}).Distinct()
			fused.Schema.Name = "result"
			if target, ok := targetSchema(k); ok {
				fused.Schema.Name = target.Name
			}

			// Compared through the wrangler's own handle, as derive does: what
			// a body writes is not an input of it.
			if !k.HasRelation(RelResult) || !w.KB.Relation(RelResult).Identical(fused) {
				k.PutRelation(RelResult, fused)
				rep.RelationsWritten = append(rep.RelationsWritten, RelResult)
				a, r := replaceFacts(k, PredResult, []relation.Tuple{relation.NewTuple(fused.Cardinality())})
				rep.FactsAsserted += a
				rep.FactsRetracted += r
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"union %d → %d fused tuples (%d clusters, %d corrections, %d suppressed)",
				union.Cardinality(), fused.Cardinality(), len(clusters), nCorr, nSupp))
			return rep, nil
		},
	}
}

// identityScorer scores two result tuples 1.0 when the named attribute is
// equal after case/space normalisation, else 0. For addresses, house
// numbers make street strings near-identical for *different* properties
// under string-similarity scorers, so equality is both safer and cheaper.
func identityScorer(attr string) fusion.PairScorer {
	return func(a, b relation.Tuple, schema relation.Schema) float64 {
		si := schema.AttrIndex(attr)
		if si < 0 || a[si].IsNull() || b[si].IsNull() {
			return 0
		}
		if strings.EqualFold(strings.TrimSpace(a[si].String()), strings.TrimSpace(b[si].String())) {
			return 1
		}
		return 0
	}
}

func sortedKeys(m map[string]*relation.Relation) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

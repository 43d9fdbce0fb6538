// Benchmarks timing every exhibit of the paper's evaluation (the §3
// demonstration of the paper PAPER.md names; `vada -exhibit all` prints the
// exhibits themselves). One benchmark per exhibit, plus micro-benchmarks for each
// substrate the architecture depends on. They import the internal packages
// directly: the facade exports only what its clients call. Run:
//
//	go test -bench=. -benchmem
package vada_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vada/internal/cfd"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/extract"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/match"
	"vada/internal/mcda"
	"vada/internal/relation"
	"vada/internal/session"
	"vada/internal/transducer"
	"vada/internal/vadalog"
)

func scenarioCfg(n int) datagen.Config {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	return cfg
}

// BenchmarkScenarioGeneration regenerates Figure 2's scenario (E-F2) at the
// frozen benchmark's two sizes: a session's create, import and recovery each
// pay it once.
func BenchmarkScenarioGeneration(b *testing.B) {
	for _, n := range []int{60, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := scenarioCfg(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := datagen.Generate(cfg)
				if sc.Truth.Cardinality() != n {
					b.Fatal("bad scenario")
				}
			}
		})
	}
}

// BenchmarkScoreResult times the oracle's score of a data-context result,
// which a session computes after every stage.
func BenchmarkScoreResult(b *testing.B) {
	for _, n := range []int{60, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := datagen.Generate(scenarioCfg(n))
			w := core.BuildScenarioWrangler(sc)
			w.AddDataContext(sc.AddressRef)
			if _, err := w.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
			res := w.ResultClean()
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if s := sc.Oracle.ScoreResult(res); s.Rows != res.Cardinality() {
					b.Fatal("bad score")
				}
			}
		})
	}
}

// BenchmarkReadinessEvaluation measures Table 1's mechanism (E-T1): deciding
// which transducers are ready via Vadalog dependency queries over the KB.
func BenchmarkReadinessEvaluation(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(200))
	w := core.BuildScenarioWrangler(sc)
	if _, err := w.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	w.AddDataContext(sc.AddressRef)
	engine := vadalog.NewEngine()
	deps := make([]transducer.Dependency, 0)
	for _, t := range w.Registry().All() {
		deps = append(deps, t.Dependency())
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range deps {
			if _, err := d.Satisfied(w.KB, engine); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBootstrap measures demonstration step 1 (E-F3): the fully
// automatic pipeline from registered sources to a fused result. n=60 is the
// serve workloads' size, where the fixed cost of a new session's first result
// shows; 200 and 600 show the scaling the frozen benchmark reports as
// core.bootstrap_ms.n*.
func BenchmarkBootstrap(b *testing.B) {
	for _, n := range []int{60, 200, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := datagen.Generate(scenarioCfg(n))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := core.BuildScenarioWrangler(sc)
				if _, err := w.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				if w.Result() == nil {
					b.Fatal("no result")
				}
			}
		})
	}
}

// BenchmarkBuildScenarioWrangler times what BenchmarkBootstrap spends before
// its first step: rendering both portals' pages, picking the annotation rows
// and registering the sources and the target.
func BenchmarkBuildScenarioWrangler(b *testing.B) {
	for _, n := range []int{60, 600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := datagen.Generate(scenarioCfg(n))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := core.BuildScenarioWrangler(sc); w == nil {
					b.Fatal("no wrangler")
				}
			}
		})
	}
}

// BenchmarkWrangleCycle is one build → bootstrap → data-context cycle at the
// frozen benchmark's large size: what ROADMAP's "where the time goes" table is
// a CPU and allocation profile of (-benchtime 150x -cpuprofile -memprofile).
func BenchmarkWrangleCycle(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(600))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := core.BuildScenarioWrangler(sc)
		if _, err := w.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayAsYouGoPipeline measures all four demonstration steps (E-F3),
// scenario generation included, walked through a session as vada -run walks
// them.
func BenchmarkPayAsYouGoPipeline(b *testing.B) {
	ctx := context.Background()
	cfg := scenarioCfg(200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := datagen.Generate(cfg)
		sess := session.New("bench", core.BuildScenarioWrangler(sc), session.WithScenario(sc, 7))
		if _, err := sess.Bootstrap(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.AddDataContext(ctx, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.AddFeedback(ctx, nil, 80); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.SetUserContext(ctx, core.CrimeAnalysisUserContext()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrchestrationReaction measures E-D1: how much work a context
// change triggers (data context over a quiesced system).
func BenchmarkOrchestrationReaction(b *testing.B) { benchDataContextReaction(b, 150) }

// BenchmarkDataContextReaction is the same reaction at the frozen benchmark's
// large size, the bootstrap untimed: what bootstrap_large's react_ms measures,
// and where a body that redoes only what moved shows.
func BenchmarkDataContextReaction(b *testing.B) { benchDataContextReaction(b, 600) }

// The wrangler benchmarks time cold column views without copying anything:
// BuildScenarioWrangler extracts or copies every source, and AddDataContext
// copies the reference, so each iteration's knowledge base holds relations
// never encoded before.
func benchDataContextReaction(b *testing.B, n int) {
	sc := datagen.Generate(scenarioCfg(n))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := core.BuildScenarioWrangler(sc)
		if _, err := w.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeedbackRound measures the r-th round of 40 annotations on a
// session with a data context at interactive size (n=100), the rounds before it
// untimed: payg_cycle's and serve_feedback's reaction. Round 1 meets a wrangler
// that remembers nothing of a feedback round; the later rounds are the ones a
// body that redoes only what moved makes cheaper. Generating the annotations
// is untimed; steps/op is the orchestration steps the timed round took.
func BenchmarkFeedbackRound(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(100))
	ctx := context.Background()
	for round := 1; round <= 3; round++ {
		b.Run(fmt.Sprintf("round=%d", round), func(b *testing.B) {
			steps := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := core.BuildScenarioWrangler(sc)
				w.AddDataContext(sc.AddressRef)
				if _, err := w.Run(ctx); err != nil {
					b.Fatal(err)
				}
				var items []feedback.Item
				for r := 1; r <= round; r++ {
					items = core.OracleFeedback(sc, w.Result(), 40, int64(4+r))
					if r == round {
						break
					}
					w.AddFeedback(items...)
					if _, err := w.Run(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				w.AddFeedback(items...)
				ran, err := w.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				steps += len(ran)
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkUserContextSwitch measures E-A2: re-selection under a new user
// context on a quiesced system.
func BenchmarkUserContextSwitch(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(150))
	w := core.BuildScenarioWrangler(sc)
	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	contexts := []*mcda.Model{
		core.CrimeAnalysisUserContext(), core.SizeAnalysisUserContext(),
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.SetUserContext(contexts[i%2])
		if _, err := w.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOracleFeedback measures E-A1's inner loop: generating and
// assimilating feedback.
func BenchmarkOracleFeedback(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(150))
	w := core.BuildScenarioWrangler(sc)
	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	res := w.Result()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		items := core.OracleFeedback(sc, res, 100, int64(i))
		if len(items) == 0 {
			b.Fatal("no feedback")
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

// cold returns copies of rels: relations whose column views (relation.Exact,
// relation.Folded) are not built yet, so that a benchmark reusing one
// scenario's relations times the encoding every pass, as a fresh knowledge
// base would.
func cold(rels ...*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(rels))
	for i, r := range rels {
		out[i] = r.Clone()
	}
	return out
}

// BenchmarkVadalogFixpoint measures the reasoner: transitive closure over a
// 150-edge chain (recursion + semi-naive evaluation).
func BenchmarkVadalogFixpoint(b *testing.B) {
	var edges []relation.Tuple
	for i := 0; i < 150; i++ {
		edges = append(edges, relation.NewTuple(i, i+1))
	}
	prog, err := vadalog.Parse(`
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).`)
	if err != nil {
		b.Fatal(err)
	}
	edb := vadalog.MapEDB{"edge": edges}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := vadalog.NewEngine().Run(prog, edb)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count("reach") != 150*151/2 {
			b.Fatal("wrong closure")
		}
	}
}

// BenchmarkVadalogAggregation measures stratified aggregation.
func BenchmarkVadalogAggregation(b *testing.B) {
	var rows []relation.Tuple
	for i := 0; i < 2000; i++ {
		rows = append(rows, relation.NewTuple(fmt.Sprintf("d%d", i%20), i))
	}
	prog, err := vadalog.Parse(`total(D, sum(S)) :- fact(D, S).`)
	if err != nil {
		b.Fatal(err)
	}
	edb := vadalog.MapEDB{"fact": rows}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := vadalog.NewEngine().Run(prog, edb)
		if err != nil {
			b.Fatal(err)
		}
		if res.Count("total") != 20 {
			b.Fatal("wrong groups")
		}
	}
}

// BenchmarkSchemaMatching measures name-based matching over the scenario
// schemas.
func BenchmarkSchemaMatching(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(100))
	target := datagen.TargetSchema()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ms := match.MatchSchemas(sc.OnTheMarket.Schema, target)
		if len(ms) == 0 {
			b.Fatal("no matches")
		}
	}
}

// BenchmarkInstanceMatching measures instance-based matching with the
// transducer's shape: all three sources against every column of the address
// reference, the reference profiled once per pass. Every pass matches fresh
// copies, untimed: a relation is encoded once, and the reused ones would time
// their encoding only on the first pass.
func BenchmarkInstanceMatching(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(600))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refs, sources := cold(sc.AddressRef), cold(sc.Rightmove, sc.OnTheMarket, sc.Deprivation)
		b.StartTimer()
		profiles := match.ProfileInstances(refs...)
		n := 0
		for _, src := range sources {
			n += len(profiles.Match(src))
		}
		if n == 0 {
			b.Fatal("no matches")
		}
	}
}

// wranglerMinCoverage is the coverage a wrangler generates mappings at unless
// it is built WithMinCoverage.
const wranglerMinCoverage = 3

// BenchmarkMappingGeneration measures candidate-mapping generation including
// inclusion-dependency discovery, over fresh copies of the sources (see
// BenchmarkInstanceMatching).
func BenchmarkMappingGeneration(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(300))
	target := datagen.TargetSchema()
	var matches []match.Match
	matches = append(matches, match.MatchSchemas(sc.Rightmove.Schema, target)...)
	matches = append(matches, match.MatchSchemas(sc.OnTheMarket.Schema, target)...)
	matches = append(matches, match.MatchSchemas(sc.Deprivation.Schema, target)...)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sources := cold(sc.Rightmove, sc.OnTheMarket, sc.Deprivation)
		b.StartTimer()
		maps := mapping.ProfileSources(sources).Generate(target, match.Correspondences(matches), wranglerMinCoverage)
		if len(maps) == 0 {
			b.Fatal("no mappings")
		}
	}
}

// BenchmarkMappingExecution measures executing the two kinds of join mapping
// through the Vadalog engine: listing x listing (onthemarket+rightmove, both
// sides grow with n and the join column is mid-atom) and listing x lookup
// (rightmove+deprivation, the lookup is small and its join column leads).
func BenchmarkMappingExecution(b *testing.B) {
	for _, n := range []int{300, 600, 1200} {
		sc := datagen.Generate(scenarioCfg(n))
		target := datagen.TargetSchema()
		sources := []*relation.Relation{sc.Rightmove, sc.OnTheMarket, sc.Deprivation}
		srcMap := map[string]*relation.Relation{}
		var matches []match.Match
		for _, src := range sources {
			srcMap[src.Schema.Name] = src
			matches = append(matches, match.MatchSchemas(src.Schema, target)...)
		}
		maps := mapping.ProfileSources(sources).Generate(target, match.Correspondences(matches), wranglerMinCoverage)
		for _, id := range []string{"m_onthemarket+rightmove", "m_rightmove+deprivation"} {
			var join *mapping.Mapping
			for i := range maps {
				if maps[i].ID == id {
					join = &maps[i]
				}
			}
			b.Run(fmt.Sprintf("%s/n=%d", id[2:], n), func(b *testing.B) {
				if join == nil {
					b.Fatalf("no mapping %s", id)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := mapping.Execute(*join, srcMap, vadalog.NewEngine())
					if err != nil {
						b.Fatal(err)
					}
					if res.Cardinality() == 0 {
						b.Fatal("empty mapping result")
					}
				}
			})
		}
	}
}

// BenchmarkCFDMining measures CTANE-style mining on the reference data of the
// frozen benchmark's large size, a fresh copy each time (see
// BenchmarkInstanceMatching).
func BenchmarkCFDMining(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(600))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ref := sc.AddressRef.Clone()
		b.StartTimer()
		cfds := cfd.Mine(ref)
		if len(cfds) == 0 {
			b.Fatal("no CFDs")
		}
	}
}

// BenchmarkRepair measures reference-based repair with the transducer's
// shape: the unrepaired result of every candidate mapping of a wrangled
// scenario through one prepared reference, fresh copies of the reference and
// the results each time (see BenchmarkInstanceMatching).
func BenchmarkRepair(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(600))
	w := core.BuildScenarioWrangler(sc)
	ctx := context.Background()
	if _, err := w.Run(ctx); err != nil {
		b.Fatal(err)
	}
	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(ctx); err != nil {
		b.Fatal(err)
	}
	srcs := map[string]*relation.Relation{}
	for _, name := range w.KB.RelationNames(core.RelSourcePrefix) {
		srcs[strings.TrimPrefix(name, core.RelSourcePrefix)] = w.KB.Relation(name)
	}
	var raw []*relation.Relation
	for _, m := range w.Mappings() {
		res, err := mapping.Execute(m, srcs, vadalog.NewEngine())
		if err != nil {
			b.Fatal(err)
		}
		raw = append(raw, res)
	}
	cfds := w.CFDs()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ref, results := sc.AddressRef.Clone(), cold(raw...)
		b.StartTimer()
		prepared := cfd.PrepareReference(ref, cfds)
		for _, res := range results {
			repaired, _ := prepared.Repair(res)
			if repaired.Cardinality() != res.Cardinality() {
				b.Fatal("repair changed cardinality")
			}
		}
	}
}

// BenchmarkMCDAWeights measures AHP weight derivation (user context).
func BenchmarkMCDAWeights(b *testing.B) {
	m := core.CrimeAnalysisUserContext()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, _, err := m.Weights()
		if err != nil || len(w) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTMLExtraction measures the DIADEM-substitute path of both portals
// at the two benchmark sizes, wrapper induction (one sample page) and
// extraction (every page) apart: bootstrap pays each once per source.
func BenchmarkHTMLExtraction(b *testing.B) {
	for _, n := range []int{100, 600} {
		sc := datagen.Generate(scenarioCfg(n))
		for _, portal := range []struct {
			tmpl extract.SiteTemplate
			src  *relation.Relation
		}{
			{extract.RightmoveTemplate(), sc.Rightmove},
			{extract.OnTheMarketTemplate(), sc.OnTheMarket},
		} {
			pages := extract.GeneratePages(portal.tmpl, portal.src)
			anns := extract.BootstrapAnnotations(portal.src, []int{0, 1, 2})
			wr, err := extract.InduceWrapper(pages[0], anns)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("induce/%s/n=%d", portal.tmpl.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := extract.InduceWrapper(pages[0], anns); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("extract/%s/n=%d", portal.tmpl.Name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rel, _, err := wr.Extract(pages, portal.src.Schema)
					if err != nil {
						b.Fatal(err)
					}
					if rel.Cardinality() != portal.src.Cardinality() {
						b.Fatal("extraction incomplete")
					}
				}
			})
		}
	}
}

// BenchmarkKBRelationRead measures what every transducer body does first:
// read a stored relation and scan it. A read shares the stored relation, so
// it must not allocate.
func BenchmarkKBRelationRead(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(600))
	k := kb.New()
	k.PutRelation("src_rightmove", sc.Rightmove.Clone())
	b.ReportAllocs()
	b.ResetTimer()
	nulls := 0
	for i := 0; i < b.N; i++ {
		for _, t := range k.Relation("src_rightmove").Tuples {
			if t[0].IsNull() {
				nulls++
			}
		}
	}
	_ = nulls
}

// BenchmarkKBAssertRetract measures the knowledge-base fact store.
func BenchmarkKBAssertRetract(b *testing.B) {
	k := kb.New()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := relation.NewTuple(i%1000, "payload")
		k.Assert("bench", t)
		if i%2 == 1 {
			k.Retract("bench", t)
		}
	}
}

// BenchmarkTraceRendering measures the browsable trace (§3).
func BenchmarkTraceRendering(b *testing.B) {
	sc := datagen.Generate(scenarioCfg(100))
	w := core.BuildScenarioWrangler(sc)
	if _, err := w.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	steps := w.Trace()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if transducer.TraceString(steps) == "" {
			b.Fatal("empty trace")
		}
	}
}

package vadalog_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/relation"
	"vada/internal/vadalog"
)

// The fixed programs of the frozen benchmark's layer probes
// (benchmark/probes.go), which is its own module and cannot be imported.
const (
	closureProgram = `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).`
	joinProgram = `
both(S, P) :- rightmove(_, S, P, _, _, _), onthemarket(_, S, P, _, _, _).
ranked(P) :- deprivation(P, _).
unranked(S, P) :- both(S, P), not ranked(P).`
	aggProgram = `percode(P, count(S)) :- rightmove(_, S, P, _, _, _).`
)

// TestDifferential runs the programs the repository itself evaluates, and
// generated ones, through the compiled evaluator and the reference evaluator
// (reference_test.go) and demands the same facts in the same order, the same
// labelled nulls, answers and errors. The programs of eval_test.go and
// edge_test.go go through the same check where they are run (runProg).
func TestDifferential(t *testing.T) {
	scenarios := map[string]*datagen.Scenario{}
	for _, n := range []int{25, 60} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties, cfg.Seed = n, seed
			scenarios[fmt.Sprintf("n%d-seed%d", n, seed)] = datagen.Generate(cfg)
		}
	}

	// A bootstrapped, data-context-aware wrangler holds the mappings
	// mapping.Generate emitted for the scenario, the source relations they
	// run over, and the knowledge base the dependency queries read.
	for name, sc := range scenarios {
		t.Run("wrangler/"+name, func(t *testing.T) {
			w := core.BuildScenarioWrangler(sc)
			if _, err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			w.AddDataContext(sc.AddressRef)
			if _, err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			edb := vadalog.MapEDB{}
			for _, rel := range w.KB.RelationNames(core.RelSourcePrefix) {
				edb[rel[len(core.RelSourcePrefix):]] = w.KB.Relation(rel).Tuples
			}
			mappings := w.Mappings()
			if len(mappings) < 3 {
				t.Fatalf("only %d mappings generated", len(mappings))
			}
			for _, m := range mappings {
				if !vadalog.CheckSame(t, vadalog.NewEngine(), m.Program, edb,
					fmt.Sprintf("?- %s(T, D, S, C, P, B, Pr, Cr, Prov), Cr != null.", m.Target.Name)) {
					t.Fatalf("mapping %s does not parse:\n%s", m.ID, m.Program)
				}
			}
			for _, td := range w.Registry().All() {
				dep := td.Dependency()
				if dep.Query != "" {
					vadalog.CheckSame(t, vadalog.NewEngine(), dep.Program, w.KB, dep.Query)
				}
			}
		})
	}

	t.Run("benchmark", func(t *testing.T) {
		var edges []relation.Tuple
		for i := 0; i < 40; i++ {
			edges = append(edges, relation.NewTuple(i, i+1), relation.NewTuple(i, i/2))
		}
		vadalog.CheckSame(t, vadalog.NewEngine(), closureProgram, vadalog.MapEDB{"edge": edges},
			"?- reach(0, X).", "?- reach(X, X).")
		for _, sc := range scenarios {
			edb := vadalog.MapEDB{"rightmove": sc.Rightmove.Tuples,
				"onthemarket": sc.OnTheMarket.Tuples, "deprivation": sc.Deprivation.Tuples}
			vadalog.CheckSame(t, vadalog.NewEngine(), joinProgram, edb, "?- unranked(S, P).", "?- both(S, _), not ranked(S).")
			vadalog.CheckSame(t, vadalog.NewEngine(), aggProgram, edb, "?- percode(P, N), N > 1.")
		}
	})

	// The engine's guards and the analysis errors, on programs that reach
	// them.
	t.Run("limits", func(t *testing.T) {
		chain := vadalog.MapEDB{"e": nil}
		for i := 0; i < 30; i++ {
			chain["e"] = append(chain["e"], relation.NewTuple(i, i+1))
		}
		for name, c := range map[string]struct {
			eng  vadalog.Engine
			prog string
		}{
			"MaxFacts":      {vadalog.Engine{MaxNullDepth: 3, MaxIterations: 1000, MaxFacts: 50}, "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), e(Y, Z)."},
			"MaxIterations": {vadalog.Engine{MaxNullDepth: 3, MaxIterations: 5, MaxFacts: 1 << 20}, "p(X, Y) :- e(X, Y).\np(X, Z) :- p(X, Y), e(Y, Z)."},
			"MaxNullDepth":  {vadalog.Engine{MaxNullDepth: 3, MaxIterations: 1000, MaxFacts: 1 << 20}, "p(Y, Z) :- p(X, Y).\np(X, Y) :- e(X, Y), X < 3."},
			"unsafe":        {*vadalog.NewEngine(), "p(X) :- e(X, _), not q(Y)."},
			"unstratified":  {*vadalog.NewEngine(), "p(X) :- e(X, _), not p(X)."},
			"aggregate":     {*vadalog.NewEngine(), "p(X, sum(Z)) :- e(X, _)."},
		} {
			t.Run(name, func(t *testing.T) {
				vadalog.CheckSame(t, &c.eng, c.prog, chain, "?- p(X, Y).", "?- p(X, Y), not e(Z).")
			})
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20170514))
		ran := 0
		for i := 0; i < 500; i++ {
			c := vadalog.NewRandomCase(rng)
			if !vadalog.CheckSame(t, vadalog.SmallEngine(), c.Program, c.EDB, c.Queries...) {
				t.Fatalf("generated program does not parse:\n%s", c.Program)
			}
			if _, err := vadalog.SmallEngine().Run(vadalog.MustParse(c.Program), c.EDB); err == nil {
				ran++
			}
		}
		if ran < 450 {
			t.Fatalf("only %d of 500 generated programs ran without error", ran)
		}
	})
}

package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"vada/internal/datagen"
	"vada/internal/kb"
	"vada/internal/relation"
	"vada/internal/transducer"
)

func testScenario(t *testing.T, n int) *datagen.Scenario {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	return datagen.Generate(cfg)
}

func TestBootstrapProducesResult(t *testing.T) {
	sc := testScenario(t, 120)
	w := BuildScenarioWrangler(sc)
	steps, err := w.Run(context.Background())
	if err != nil {
		t.Fatalf("bootstrap failed: %v\ntrace:\n%s", err, transducer.TraceString(w.Trace()))
	}
	if len(steps) == 0 {
		t.Fatal("bootstrap should run transducers")
	}
	res := w.Result()
	if res == nil || res.Cardinality() == 0 {
		t.Fatal("bootstrap should produce a result")
	}
	if res.Schema.AttrIndex("crimerank") < 0 || res.Schema.AttrIndex("street") < 0 {
		t.Fatalf("result schema %v", res.Schema)
	}
	clean := w.ResultClean()
	if clean.Schema.AttrIndex("_src") >= 0 {
		t.Fatal("ResultClean should drop provenance")
	}
	// Re-running without new information is a no-op (quiescence).
	more, err := w.Run(context.Background())
	if err != nil || len(more) != 0 {
		t.Fatalf("quiescence violated: %d steps, %v\ntrace:\n%s",
			len(more), err, transducer.TraceString(more))
	}
}

func TestBootstrapActivityOrdering(t *testing.T) {
	sc := testScenario(t, 60)
	w := BuildScenarioWrangler(sc)
	steps, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]int{}
	for _, s := range steps {
		if _, ok := first[s.Activity]; !ok {
			first[s.Activity] = s.Seq
		}
	}
	// Dataflow-imposed order: extraction before matching before mapping
	// before execution before fusion.
	chain := []string{"extraction", "matching", "mapping", "execution", "selection", "fusion"}
	for i := 1; i < len(chain); i++ {
		a, b := chain[i-1], chain[i]
		if first[a] == 0 || first[b] == 0 {
			t.Fatalf("activity %s or %s never ran; trace:\n%s", a, b, transducer.TraceString(steps))
		}
		if first[a] > first[b] {
			t.Errorf("%s (step %d) should precede %s (step %d)", a, first[a], b, first[b])
		}
	}
}

func TestDataContextImprovesResult(t *testing.T) {
	sc := testScenario(t, 150)
	w := BuildScenarioWrangler(sc)
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := sc.Oracle.ScoreResult(w.ResultClean())

	w.AddDataContext(sc.AddressRef)
	steps, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("data context must re-trigger transducers")
	}
	after := sc.Oracle.ScoreResult(w.ResultClean())

	// The paper's step-2 claim: the result should now be of better quality.
	// Data context fixes identification (matching, repair, joins): F1 and
	// crimerank completeness must improve strictly; accuracy of asserted
	// values must not regress. (Value errors like the bedroom area are
	// feedback's job, not data context's.)
	if after.F1 <= before.F1 {
		t.Errorf("F1 should improve with data context: %.3f -> %.3f", before.F1, after.F1)
	}
	if after.Completeness["crimerank"] <= before.Completeness["crimerank"] {
		t.Errorf("crimerank completeness should improve: %.3f -> %.3f",
			before.Completeness["crimerank"], after.Completeness["crimerank"])
	}
	if after.ValueAccuracy < before.ValueAccuracy-0.02 {
		t.Errorf("value accuracy regressed: %.3f -> %.3f", before.ValueAccuracy, after.ValueAccuracy)
	}
	// CFDs must have been learned.
	if len(w.CFDs()) == 0 {
		t.Error("data context should yield CFDs")
	}
	// Instance matching should widen onthemarket's mapped attributes.
	found := false
	for _, m := range w.Matches() {
		if m.SourceRel == "onthemarket" && m.SourceAttr == "address_line" &&
			m.TargetAttr == "street" && m.Score >= 0.6 {
			found = true
		}
	}
	if !found {
		t.Error("instance matching should recover address_line→street")
	}
}

func TestFeedbackImprovesBedroomAccuracy(t *testing.T) {
	sc := testScenario(t, 200)
	w := BuildScenarioWrangler(sc)
	ctx := context.Background()
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	before := bedroomAccuracy(t, sc, w.ResultClean())

	items := OracleFeedback(sc, w.Result(), 150, 11)
	if len(items) == 0 {
		t.Fatal("oracle should produce feedback")
	}
	w.AddFeedback(items...)
	steps, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("feedback must re-trigger transducers")
	}
	after := bedroomAccuracy(t, sc, w.ResultClean())
	if after < before {
		t.Errorf("bedroom accuracy regressed after feedback: %.3f -> %.3f", before, after)
	}
}

// bedroomAccuracy measures the fraction of non-null bedroom cells that match
// ground truth among addressable rows.
func bedroomAccuracy(t *testing.T, sc *datagen.Scenario, res *relation.Relation) float64 {
	t.Helper()
	si := res.Schema.AttrIndex("street")
	pi := res.Schema.AttrIndex("postcode")
	bi := res.Schema.AttrIndex("bedrooms")
	right, total := 0, 0
	for _, tp := range res.Tuples {
		if tp[bi].IsNull() {
			continue
		}
		correct, known := sc.Oracle.CellCorrect(tp[si].String(), tp[pi].String(), "bedrooms", tp[bi])
		if !known {
			continue
		}
		total++
		if correct {
			right++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(right) / float64(total)
}

func TestUserContextChangesSelection(t *testing.T) {
	sc := testScenario(t, 150)

	run := func(uc func() *Wrangler) []string {
		w := uc()
		return w.SelectedMappings()
	}
	base := func() *Wrangler {
		w := BuildScenarioWrangler(sc)
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return w
	}
	crime := run(func() *Wrangler {
		w := base()
		w.SetUserContext(CrimeAnalysisUserContext())
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return w
	})
	if len(crime) == 0 {
		t.Fatal("selection should pick mappings")
	}
	// Under the crime-analysis context, the top mapping must be one that
	// populates crimerank (a +deprivation join).
	if !strings.Contains(crime[0], "deprivation") {
		t.Errorf("crime context should rank a deprivation join first: %v", crime)
	}
}

func TestArchitectureRendering(t *testing.T) {
	w := NewWrangler()
	arch := w.Architecture()
	for _, want := range []string{"Knowledge Base", "Vadalog Reasoner", "generic-network",
		"web-extraction", "schema-matching", "mapping-generation", "duplicate-fusion"} {
		if !strings.Contains(arch, want) {
			t.Errorf("architecture missing %q:\n%s", want, arch)
		}
	}
}

func TestCustomTransducerExtensibility(t *testing.T) {
	sc := testScenario(t, 60)
	w := BuildScenarioWrangler(sc)
	ran := false
	w.Registry().MustRegister(&transducer.Func{
		TName:     "custom-profiler",
		TActivity: "quality",
		Dep:       transducer.Dependency{Query: "?- md_result(N)."},
		RunFn: func(_ context.Context, k *kb.KB) (transducer.Report, error) {
			ran = true
			return transducer.Report{Notes: []string{"profiled"}}, nil
		},
	})
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("custom transducer should have been orchestrated")
	}
}

func TestReplaceFactsIdempotent(t *testing.T) {
	k := kb.New()
	facts := []relation.Tuple{relation.NewTuple("a", 1), relation.NewTuple("b", 2)}
	a, r := replaceFacts(k, "p", facts)
	if a != 2 || r != 0 {
		t.Fatalf("first replace: +%d -%d", a, r)
	}
	v := k.Version()
	a, r = replaceFacts(k, "p", facts)
	if a != 0 || r != 0 || k.Version() != v {
		t.Fatalf("identical replace must be a no-op: +%d -%d v%d->v%d", a, r, v, k.Version())
	}
	a, r = replaceFacts(k, "p", facts[:1])
	if a != 0 || r != 1 {
		t.Fatalf("shrinking replace: +%d -%d", a, r)
	}
}

func TestSelectedMappingsOnePerBaseSource(t *testing.T) {
	sc := testScenario(t, 100)
	w := BuildScenarioWrangler(sc)
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sel := w.SelectedMappings()
	baseOf := map[string]string{}
	for _, m := range w.Mappings() {
		baseOf[m.ID] = m.BaseSource
	}
	bases := map[string]bool{}
	for _, id := range sel {
		if bases[baseOf[id]] {
			t.Fatalf("two selected mappings share base %s: %v", baseOf[id], sel)
		}
		bases[baseOf[id]] = true
	}
	if len(sel) < 2 {
		t.Fatalf("both portals should be represented: %v", sel)
	}
}

// TestExampleRowsCoverAllAttributes guards the wrapper-induction training
// set: under heavy noise the first listings may miss whole fields (a null
// postcode teaches nothing about postcodes), so example selection must walk
// down the page until every attribute is exemplified.
func TestExampleRowsCoverAllAttributes(t *testing.T) {
	r := relation.New(relation.NewSchema("s", "a", "b", "c"))
	r.MustAppend("a0", nil, nil)
	r.MustAppend("a1", nil, nil)
	r.MustAppend(nil, "b2", nil)
	r.MustAppend(nil, nil, nil) // useless row: skipped
	r.MustAppend(nil, nil, "c4")
	rows := exampleRows(r)
	covered := map[int]bool{}
	for _, row := range rows {
		for ai, v := range r.Tuples[row] {
			if !v.IsNull() {
				covered[ai] = true
			}
		}
	}
	if len(covered) != 3 {
		t.Fatalf("rows %v cover %d of 3 attributes", rows, len(covered))
	}
	for _, row := range rows {
		if row == 3 {
			t.Fatalf("all-null row selected: %v", rows)
		}
	}
	// High-noise scenario end-to-end: bootstrap must stay addressable.
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 150
	cfg.NullRate, cfg.FormatNoiseRate, cfg.BedroomErrorRate, cfg.TypoRate = 0.2, 0.4, 0.3, 0.1
	sc := datagen.Generate(cfg)
	w := BuildScenarioWrangler(sc)
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := sc.Oracle.ScoreResult(w.ResultClean()); s.F1 <= 0 {
		t.Fatalf("high-noise bootstrap unaddressable: %+v", s)
	}
}

// TestPropBootstrapQuiescesAcrossSeeds sweeps scenario seeds: every
// bootstrap must produce a result, quiesce, and stay quiescent on re-run —
// the orchestrator's fixpoint must not depend on one lucky data layout.
func TestPropBootstrapQuiescesAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := datagen.DefaultConfig()
		cfg.NProperties = 60
		cfg.Seed = seed
		sc := datagen.Generate(cfg)
		w := BuildScenarioWrangler(sc)
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if w.Result() == nil || w.Result().Cardinality() == 0 {
			t.Fatalf("seed %d: empty result", seed)
		}
		more, err := w.Run(context.Background())
		if err != nil || len(more) != 0 {
			t.Fatalf("seed %d: not quiescent (%d steps, %v)", seed, len(more), err)
		}
		// Data context must also re-quiesce for every seed.
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatalf("seed %d data context: %v", seed, err)
		}
		more, err = w.Run(context.Background())
		if err != nil || len(more) != 0 {
			t.Fatalf("seed %d: data context not quiescent (%d steps, %v)", seed, len(more), err)
		}
	}
}

func TestTraceMentionsAllActivities(t *testing.T) {
	sc := testScenario(t, 60)
	w := BuildScenarioWrangler(sc)
	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	text := transducer.TraceString(w.Trace())
	for _, act := range []string{"extraction", "matching", "mapping", "execution", "repair", "quality", "selection", "fusion", "quality-rules"} {
		if !strings.Contains(text, act) {
			t.Errorf("trace missing activity %s", act)
		}
	}
}

// relationDigest is a relation's schema and rows as one string: equal digests,
// identical relations.
func relationDigest(r *relation.Relation) string {
	var b strings.Builder
	b.WriteString(r.Schema.String())
	for _, t := range r.Tuples {
		b.WriteString(t.Key())
		b.WriteByte(0x1e)
	}
	return b.String()
}

// TestBootstrapDeterministic pins that a bootstrap is a function of its
// inputs. On this scenario two candidate mappings score within an ulp of each
// other, and when the scores were summed in map order one bootstrap in forty
// ranked them the other way round and fused a different result.
func TestBootstrapDeterministic(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties, cfg.Seed = 30, 2143417786
	sc := datagen.Generate(cfg)
	digests := map[string]int{}
	for i := 0; i < 120; i++ {
		w := BuildScenarioWrangler(sc)
		if _, err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		digests[relationDigest(w.Result())]++
	}
	if len(digests) != 1 {
		t.Fatalf("120 bootstraps of one scenario gave %d different results: %v", len(digests), digests)
	}
}

// TestDataContextDeterministic is TestBootstrapDeterministic one stage on:
// instance matching and reference repair join in once a data context is
// there, and the instance matcher's shape cosine used to sum in map order.
func TestDataContextDeterministic(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties, cfg.Seed = 30, 2143417786
	sc := datagen.Generate(cfg)
	ctx := context.Background()
	digests := map[string]int{}
	for i := 0; i < 60; i++ {
		w := BuildScenarioWrangler(sc)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
		digests[relationDigest(w.Result())]++
	}
	if len(digests) != 1 {
		t.Fatalf("60 bootstraps with data context of one scenario gave %d different results: %v", len(digests), digests)
	}
}

// TestContextAddedWhileRunning: sources, context and feedback may be added,
// and every accessor read, from other goroutines while a run is in flight.
// What they share with the running bodies is in the knowledge base, under its
// lock; under -race this is the test that nothing else is shared.
func TestContextAddedWhileRunning(t *testing.T) {
	sc := testScenario(t, 30)
	w := BuildScenarioWrangler(sc)
	ctx := context.Background()
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	items := OracleFeedback(sc, w.Result(), 20, 5)

	var wg sync.WaitGroup
	for _, act := range []func(i int){
		func(int) {
			if _, err := w.Run(ctx); err != nil {
				t.Error(err)
			}
		},
		func(i int) { w.AddFeedback(items[i%len(items)]) },
		func(i int) {
			if i%2 == 0 {
				w.SetUserContext(CrimeAnalysisUserContext())
			} else {
				w.SetUserContext(SizeAnalysisUserContext())
			}
		},
		func(int) { w.AddDataContext(sc.AddressRef) },
		func(int) { w.RegisterSource(sc.Deprivation) },
		func(int) {
			w.Matches()
			w.Mappings()
			w.CFDs()
			w.TargetSchema()
			w.UserWeights()
			w.FeedbackItems()
			w.ResultClean()
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				act(i)
			}
		}()
	}
	wg.Wait()
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if steps, err := w.Run(ctx); err != nil || len(steps) != 0 {
		t.Fatalf("not quiescent after the last run: %d steps, err %v", len(steps), err)
	}
	if got := len(w.FeedbackItems()); got != 8 {
		t.Fatalf("%d feedback items held, 8 were added", got)
	}
}

// TestNarrowTargetWrangles: a target with fewer attributes than the default
// MinCoverage is covered by a source matching all of them — with the default
// options, which a client of vada-server cannot change.
func TestNarrowTargetWrangles(t *testing.T) {
	src := relation.New(relation.NewSchema("deprivation", "postcode", "crime:int"))
	src.MustAppend("M1 1AA", 3)
	src.MustAppend("M2 2BB", 7)
	w := NewWrangler()
	w.RegisterSource(src)
	w.SetTargetSchema(relation.NewSchema("crimes", "postcode", "crime:int"))
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(w.Mappings()); n != 1 {
		t.Fatalf("%d mappings over a source matching the whole 2-attribute target, want 1", n)
	}
	if res := w.ResultClean(); res == nil || res.Cardinality() != 2 {
		t.Fatalf("result = %v, want the source's 2 rows", res)
	}
}

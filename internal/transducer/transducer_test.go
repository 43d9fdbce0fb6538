package transducer

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vada/internal/kb"
	"vada/internal/relation"
	"vada/internal/vadalog"
)

func tup(vals ...any) relation.Tuple { return relation.NewTuple(vals...) }

// counterTransducer asserts out(N) facts when in(_) facts exist, once per
// new KB version.
func counterTransducer(name, activity, inPred, outPred string) *Func {
	return &Func{
		TName:     name,
		TActivity: activity,
		Dep:       Dependency{Query: "?- " + inPred + "(X)."},
		RunFn: func(_ context.Context, k *kb.KB) (Report, error) {
			// Idempotent: derive out facts from in facts.
			rep := Report{}
			for _, t := range k.Facts(inPred) {
				if k.Assert(outPred, t) {
					rep.FactsAsserted++
				}
			}
			return rep, nil
		},
	}
}

func TestDependencySatisfied(t *testing.T) {
	k := kb.New()
	eng := vadalog.NewEngine()
	d := Dependency{Query: "?- p(X)."}
	ok, err := d.Satisfied(k, eng)
	if err != nil || ok {
		t.Fatalf("empty KB: %v %v", ok, err)
	}
	k.Assert("p", tup(1))
	ok, err = d.Satisfied(k, eng)
	if err != nil || !ok {
		t.Fatalf("after assert: %v %v", ok, err)
	}
}

func TestDependencyWithProgramAndGuard(t *testing.T) {
	k := kb.New()
	eng := vadalog.NewEngine()
	d := Dependency{
		Program: "both(X) :- a(X), b(X).",
		Query:   "?- both(X).",
		Guard:   func(k *kb.KB) bool { return k.HasRelation("bulk") },
	}
	k.Assert("a", tup("v"))
	if ok, _ := d.Satisfied(k, eng); ok {
		t.Fatal("b missing: unsatisfied")
	}
	k.Assert("b", tup("v"))
	if ok, _ := d.Satisfied(k, eng); ok {
		t.Fatal("guard fails: unsatisfied")
	}
	k.PutRelation("bulk", relation.New(relation.NewSchema("bulk", "x")))
	if ok, _ := d.Satisfied(k, eng); !ok {
		t.Fatal("all conditions hold: satisfied")
	}
}

func TestDependencyNegation(t *testing.T) {
	// Table-1 style: ready when sources registered but not yet processed.
	k := kb.New()
	eng := vadalog.NewEngine()
	d := Dependency{Query: "?- registered(S), not processed(S)."}
	k.Assert("registered", tup("s1"))
	if ok, _ := d.Satisfied(k, eng); !ok {
		t.Fatal("unprocessed source: ready")
	}
	k.Assert("processed", tup("s1"))
	if ok, _ := d.Satisfied(k, eng); ok {
		t.Fatal("all processed: not ready")
	}
}

func TestEmptyQueryAlwaysSatisfied(t *testing.T) {
	d := Dependency{}
	if ok, _ := d.Satisfied(kb.New(), vadalog.NewEngine()); !ok {
		t.Fatal("empty dependency should be satisfied")
	}
}

func TestRegistryDuplicateRejected(t *testing.T) {
	r := NewRegistry()
	a := counterTransducer("t1", "x", "in", "out")
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(counterTransducer("t1", "x", "in", "out")); err == nil {
		t.Fatal("duplicate should fail")
	}
	if all := r.All(); len(all) != 1 || all[0] != a {
		t.Fatalf("All = %v, want the first t1 alone", all)
	}
}

func TestOrchestratorPipelineRunsToQuiescence(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	reg.MustRegister(
		counterTransducer("stage2", "mapping", "mid", "final"),
		counterTransducer("stage1", "matching", "seed", "mid"),
	)
	k.Assert("seed", tup("a"))
	k.Assert("seed", tup("b"))

	o := NewOrchestrator(k, reg)
	steps, err := o.RunToQuiescence(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if k.Count("final") != 2 {
		t.Fatalf("final facts = %d, want 2", k.Count("final"))
	}
	// Data flow, not registration order: stage1 must run before stage2
	// produces anything (activity ranking puts matching before mapping).
	if steps[0].Transducer != "stage1" {
		t.Fatalf("first step = %s", steps[0].Transducer)
	}
	// Quiescent now: another run does nothing.
	more, err := o.RunToQuiescence(context.Background())
	if err != nil || len(more) != 0 {
		t.Fatalf("quiescent system ran %d more steps (%v)", len(more), err)
	}
}

func TestOrchestratorReactsToNewInformation(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	reg.MustRegister(counterTransducer("t", "matching", "seed", "out"))
	o := NewOrchestrator(k, reg)

	steps, _ := o.RunToQuiescence(context.Background())
	if len(steps) != 0 {
		t.Fatal("nothing to do yet")
	}
	k.Assert("seed", tup("x"))
	steps, _ = o.RunToQuiescence(context.Background())
	if len(steps) == 0 || k.Count("out") != 1 {
		t.Fatal("new fact should trigger the transducer")
	}
	// New context information re-triggers (the §3 demonstration flow).
	k.Assert("seed", tup("y"))
	steps, _ = o.RunToQuiescence(context.Background())
	if k.Count("out") != 2 {
		t.Fatal("second fact should re-trigger")
	}
	if len(o.Trace()) < 2 {
		t.Fatal("trace should accumulate across calls")
	}
}

func TestOrchestratorErrorRecorded(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	boom := errors.New("boom")
	reg.MustRegister(&Func{
		TName: "bad", TActivity: "matching",
		Dep: Dependency{Query: "?- seed(X)."},
		RunFn: func(_ context.Context, _ *kb.KB) (Report, error) {
			return Report{}, boom
		},
	})
	k.Assert("seed", tup(1))
	o := NewOrchestrator(k, reg)
	steps, err := o.RunToQuiescence(context.Background())
	if err != nil {
		t.Fatalf("orchestration should survive transducer failure: %v", err)
	}
	if len(steps) != 1 || !errors.Is(steps[0].Err, boom) {
		t.Fatalf("steps = %+v", steps)
	}
	// Failed transducer is not retried until new information arrives.
	more, _ := o.RunToQuiescence(context.Background())
	if len(more) != 0 {
		t.Fatal("failure must not livelock")
	}
}

func TestOrchestratorSelfWritesDoNotRetrigger(t *testing.T) {
	// A transducer's own assertions must not re-trigger it: lastRun records
	// the post-run version, so a self-asserting transducer quiesces.
	k := kb.New()
	reg := NewRegistry()
	n := 0
	reg.MustRegister(&Func{
		TName: "selfwriter", TActivity: "matching",
		Dep: Dependency{Query: "?- seed(X)."},
		RunFn: func(_ context.Context, k *kb.KB) (Report, error) {
			n++
			k.Assert("seed", tup(n))
			return Report{FactsAsserted: 1}, nil
		},
	})
	k.Assert("seed", tup(0))
	o := NewOrchestrator(k, reg)
	o.MaxSteps = 10
	steps, err := o.RunToQuiescence(context.Background())
	if err != nil || len(steps) != 1 {
		t.Fatalf("self-writer should run exactly once: %d steps, %v", len(steps), err)
	}
}

func TestOrchestratorMaxStepsGuard(t *testing.T) {
	// Two mutually-triggering transducers livelock; MaxSteps must trip.
	k := kb.New()
	reg := NewRegistry()
	na, nb := 0, 0
	reg.MustRegister(
		&Func{
			TName: "ping", TActivity: "matching",
			Dep: Dependency{Query: "?- a(X)."},
			RunFn: func(_ context.Context, k *kb.KB) (Report, error) {
				na++
				k.Assert("b", tup(na))
				return Report{FactsAsserted: 1}, nil
			},
		},
		&Func{
			TName: "pong", TActivity: "matching",
			Dep: Dependency{Query: "?- b(X)."},
			RunFn: func(_ context.Context, k *kb.KB) (Report, error) {
				nb++
				k.Assert("a", tup(nb+1_000_000))
				return Report{FactsAsserted: 1}, nil
			},
		},
	)
	k.Assert("a", tup(0))
	o := NewOrchestrator(k, reg)
	o.MaxSteps = 10
	// The guard is per call: the second call gets ten steps of its own.
	for call := 1; call <= 2; call++ {
		steps, err := o.RunToQuiescence(context.Background())
		if err == nil || len(steps) != 10 {
			t.Fatalf("call %d: mutual livelock must trip MaxSteps after 10 steps: %d steps, %v", call, len(steps), err)
		}
		if got := steps[9].Seq; got != 10*call {
			t.Fatalf("call %d: last Seq = %d, want the cumulative %d", call, got, 10*call)
		}
	}
}

func TestOrchestratorContextCancel(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	reg.MustRegister(counterTransducer("t", "matching", "seed", "out"))
	k.Assert("seed", tup(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := NewOrchestrator(k, reg)
	if _, err := o.RunToQuiescence(ctx); err == nil {
		t.Fatal("cancelled context should abort")
	}
}

func TestGenericNetworkPhaseOrdering(t *testing.T) {
	g := NewGenericNetwork()
	ext := counterTransducer("e", "extraction", "a", "b")
	mapg := counterTransducer("m", "mapping", "a", "b")
	sel := g.Select([]Transducer{mapg, ext}, nil, nil)
	if sel != ext {
		t.Fatal("extraction should outrank mapping")
	}
	unknown := counterTransducer("u", "weird-activity", "a", "b")
	sel = g.Select([]Transducer{unknown, mapg}, nil, nil)
	if sel != mapg {
		t.Fatal("unknown activities rank last")
	}
	if g.Select(nil, nil, nil) != nil {
		t.Fatal("no ready = nil")
	}
}

func TestPreferNetwork(t *testing.T) {
	inner := NewGenericNetwork()
	p := &PreferNetwork{Inner: inner, Prefixes: []string{"instance-"}}
	schemaM := counterTransducer("schema-matcher", "matching", "a", "b")
	instM := counterTransducer("instance-matcher", "matching", "a", "b")
	if p.Select([]Transducer{schemaM, instM}, nil, nil) != instM {
		t.Fatal("prefix preference should win")
	}
	if p.Select([]Transducer{schemaM}, nil, nil) != schemaM {
		t.Fatal("fallback to inner policy")
	}
	if p.Name() == "" || inner.Name() == "" {
		t.Fatal("names must render")
	}
}

func TestResetEligibility(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	runs := 0
	reg.MustRegister(&Func{
		TName: "idem", TActivity: "matching",
		Dep: Dependency{Query: "?- seed(X)."},
		RunFn: func(_ context.Context, _ *kb.KB) (Report, error) {
			runs++
			return Report{}, nil
		},
	})
	k.Assert("seed", tup(1))
	o := NewOrchestrator(k, reg)
	_, _ = o.RunToQuiescence(context.Background())
	if runs != 1 {
		t.Fatalf("runs = %d", runs)
	}
	o.ResetEligibility()
	_, _ = o.RunToQuiescence(context.Background())
	if runs != 2 {
		t.Fatalf("reset should re-run: %d", runs)
	}
}

func TestTraceRendering(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	reg.MustRegister(counterTransducer("stage1", "matching", "seed", "out"))
	k.Assert("seed", tup("a"))
	o := NewOrchestrator(k, reg)
	steps, _ := o.RunToQuiescence(context.Background())
	text := TraceString(steps)
	if !strings.Contains(text, "stage1") || !strings.Contains(text, "matching") {
		t.Fatalf("trace missing content:\n%s", text)
	}
	if !strings.Contains(text, "ready:") {
		t.Fatal("trace should list ready transducers")
	}
}

func TestTableOneInputDependencies(t *testing.T) {
	// Encodes Table 1 of the paper: each activity's transducer with its
	// input dependency, verified to become ready exactly when the
	// dependency's facts arrive. This is experiment E-T1's core assertion.
	k := kb.New()
	eng := vadalog.NewEngine()

	deps := map[string]Dependency{
		"Schema Matching":    {Query: "?- src_schema(S), uc_target_schema(T)."},
		"Instance Matching":  {Query: "?- src_instances(S), dc_instances(T)."},
		"Mapping Generation": {Query: "?- md_match(S, A, T2)."},
		"Mapping Selection":  {Query: "?- md_quality(M, Q, V)."},
		"CFD Learning":       {Query: "?- dc_reference(R)."},
	}
	// Nothing ready on the empty KB.
	for name, d := range deps {
		if ok, err := d.Satisfied(k, eng); err != nil || ok {
			t.Fatalf("%s ready on empty KB (%v)", name, err)
		}
	}
	// Assert inputs one activity at a time and check exactly the right
	// transducers become ready.
	k.Assert("src_schema", tup("rightmove"))
	if ok, _ := deps["Schema Matching"].Satisfied(k, eng); ok {
		t.Fatal("schema matching needs both schemas")
	}
	k.Assert("uc_target_schema", tup("target"))
	if ok, _ := deps["Schema Matching"].Satisfied(k, eng); !ok {
		t.Fatal("schema matching should be ready")
	}
	if ok, _ := deps["Instance Matching"].Satisfied(k, eng); ok {
		t.Fatal("instance matching needs instances")
	}
	k.Assert("src_instances", tup("rightmove"))
	k.Assert("dc_instances", tup("address"))
	if ok, _ := deps["Instance Matching"].Satisfied(k, eng); !ok {
		t.Fatal("instance matching should be ready")
	}
	k.Assert("md_match", tup("rightmove", "price", "price"))
	if ok, _ := deps["Mapping Generation"].Satisfied(k, eng); !ok {
		t.Fatal("mapping generation should be ready")
	}
	k.Assert("dc_reference", tup("address"))
	if ok, _ := deps["CFD Learning"].Satisfied(k, eng); !ok {
		t.Fatal("CFD learning should be ready")
	}
	if ok, _ := deps["Mapping Selection"].Satisfied(k, eng); ok {
		t.Fatal("mapping selection needs quality metrics")
	}
	k.Assert("md_quality", tup("m_rightmove", "completeness", 0.8))
	if ok, _ := deps["Mapping Selection"].Satisfied(k, eng); !ok {
		t.Fatal("mapping selection should be ready")
	}
}

// TestTraceBounded drives one orchestrator far past TraceCap, a few steps
// per run the way a long-lived session does: the trace stays at the cap and
// holds the most recent steps, Seq keeps counting every step ever taken, and
// the network transducer's history is the same bounded window.
func TestTraceBounded(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	reg.MustRegister(
		counterTransducer("stage1", "matching", "seed", "mid"),
		counterTransducer("stage2", "mapping", "mid", "final"),
	)
	longest := 0
	o := NewOrchestrator(k, reg)
	o.Network = networkFunc(func(ready []Transducer, hist []Step) Transducer {
		longest = max(longest, len(hist))
		return ready[0]
	})
	total := 0
	for i := 0; total < 2*TraceCap+TraceCap/2; i++ {
		k.Assert("seed", tup(i))
		steps, err := o.RunToQuiescence(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) == 0 {
			t.Fatalf("run %d took no steps", i)
		}
		total += len(steps)
		if got := len(o.Trace()); got != min(total, TraceCap) {
			t.Fatalf("after %d steps the trace holds %d, want %d", total, got, min(total, TraceCap))
		}
	}
	trace := o.Trace()
	for i, s := range trace {
		if want := total - len(trace) + 1 + i; s.Seq != want {
			t.Fatalf("trace[%d].Seq = %d, want %d (cumulative, strictly increasing)", i, s.Seq, want)
		}
	}
	if longest != TraceCap {
		t.Fatalf("network transducer saw a history of %d steps, want the cap %d", longest, TraceCap)
	}
}

// networkFunc adapts a function to NetworkTransducer.
type networkFunc func(ready []Transducer, hist []Step) Transducer

func (networkFunc) Name() string { return "test" }

func (f networkFunc) Select(ready []Transducer, _ *kb.KB, hist []Step) Transducer {
	return f(ready, hist)
}

// countingTransducer copies in-facts to out-facts like counterTransducer and
// counts its executions.
func countingTransducer(name, inPred, outPred string, runs *int) *Func {
	f := counterTransducer(name, "matching", inPred, outPred)
	body := f.RunFn
	f.RunFn = func(ctx context.Context, k *kb.KB) (Report, error) {
		*runs++
		return body(ctx, k)
	}
	return f
}

func TestOrchestratorSkipsTransducersWhoseInputsHaveNotMoved(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	var left, right int
	reg.MustRegister(
		countingTransducer("left", "a", "a_out", &left),
		countingTransducer("right", "b", "b_out", &right),
	)
	k.Assert("a", tup(1))
	k.Assert("b", tup(1))
	o := NewOrchestrator(k, reg)
	ctx := context.Background()
	steps, err := o.RunToQuiescence(ctx)
	if err != nil || left != 1 || right != 1 {
		t.Fatalf("first run: left %d right %d (%v)", left, right, err)
	}
	// Each saw the other's write move the version, was picked again, and was
	// dropped unrun: neither reads what the other wrote.
	if got := steps[len(steps)-1].Skipped; len(got) == 0 {
		t.Fatalf("the run's last step lists no skips: %+v", steps)
	}
	for _, s := range steps[:len(steps)-1] {
		if s.Skipped != nil {
			t.Fatalf("only the last step of a run carries its skips: %+v", s)
		}
	}
	// a from the dependency and the body; a_out is not read: Assert is a write.
	if got := o.Inputs("left"); len(got) != 1 || got[0] != kb.FactsKey("a") {
		t.Fatalf("left's input set = %v", got)
	}

	// New information for one of them runs that one only.
	k.Assert("b", tup(2))
	steps, err = o.RunToQuiescence(ctx)
	if err != nil || left != 1 || right != 2 {
		t.Fatalf("after b moved: left %d right %d (%v)", left, right, err)
	}
	if len(steps) != 1 || steps[0].Transducer != "right" {
		t.Fatalf("steps = %+v", steps)
	}
	if got := steps[0].Skipped; len(got) != 2 || got[0] != "left" || got[1] != "left" {
		// Ready before right ran (b moved the version) and again after.
		t.Fatalf("skipped = %v, want left twice", got)
	}
	if text := TraceString(steps); !strings.Contains(text, "skipped (inputs unchanged): left ×2\n") {
		t.Fatalf("trace does not say why left did not run:\n%s", text)
	}
	// Quiescent: a skip marks the transducer as run at the current version.
	if more, _ := o.RunToQuiescence(ctx); len(more) != 0 {
		t.Fatalf("quiescent system took %d steps", len(more))
	}
	if o.Inputs("ghost") != nil {
		t.Fatal("a transducer that never executed has no input set")
	}
}

func TestMaxStepsCountsExecutedSteps(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	var idle [6]int
	for i := range idle {
		pred := fmt.Sprintf("idle%d", i)
		reg.MustRegister(countingTransducer(pred, pred, pred+"_out", &idle[i]))
		k.Assert(pred, tup(1))
	}
	var busy int
	reg.MustRegister(countingTransducer("busy", "work", "done", &busy))
	o := NewOrchestrator(k, reg)
	o.MaxSteps = 7
	ctx := context.Background()
	if _, err := o.RunToQuiescence(ctx); err != nil {
		t.Fatal(err)
	}
	// Six ready transducers are skipped before and after busy's one step;
	// with skips counted the guard of two would trip.
	o.MaxSteps = 2
	k.Assert("work", tup(1))
	steps, err := o.RunToQuiescence(ctx)
	if err != nil || len(steps) != 1 || busy != 1 {
		t.Fatalf("%d steps, busy ran %d times: %v", len(steps), busy, err)
	}
	if got := len(steps[0].Skipped); got != 12 {
		t.Fatalf("%d skips, want the six idle transducers twice", got)
	}
}

func TestFailedTransducerKeepsNoInputSet(t *testing.T) {
	// A body that fails may not have got as far as reading what it depends
	// on, so it is retried whenever it is next picked — as it always was.
	k := kb.New()
	reg := NewRegistry()
	attempts := 0
	reg.MustRegister(&Func{
		TName: "flaky", TActivity: "matching",
		Dep: Dependency{Query: "?- seed(X)."},
		RunFn: func(_ context.Context, k *kb.KB) (Report, error) {
			attempts++
			if attempts == 1 {
				return Report{}, errors.New("not yet")
			}
			k.Facts("late") // only a successful run reads this
			return Report{}, nil
		},
	})
	k.Assert("seed", tup(1))
	o := NewOrchestrator(k, reg)
	ctx := context.Background()
	_, _ = o.RunToQuiescence(ctx)
	k.Assert("unrelated", tup(1))
	_, _ = o.RunToQuiescence(ctx)
	if attempts != 2 {
		t.Fatalf("%d attempts: a failed transducer must be retried when the KB moves", attempts)
	}
	k.Assert("unrelated", tup(2))
	_, _ = o.RunToQuiescence(ctx)
	if attempts != 2 {
		t.Fatalf("%d attempts: after a successful run its inputs decide", attempts)
	}
	k.Assert("late", tup(1))
	_, _ = o.RunToQuiescence(ctx)
	if attempts != 3 {
		t.Fatalf("%d attempts: a key the successful run read moved", attempts)
	}
}

// rewriter is a transducer whose body reads a key only to rewrite it, and
// says so through InputDeclarer.
type rewriter struct {
	*Func
	derived kb.Key
}

func (c rewriter) Inputs(read []kb.Key) []kb.Key {
	return slices.DeleteFunc(read, func(key kb.Key) bool { return key == c.derived })
}

func TestInputDeclarer(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	runs := 0
	k.PutValue("test.limit", 10)
	reg.MustRegister(rewriter{
		derived: kb.FactsKey("published"),
		Func: &Func{
			TName: "limiter", TActivity: "matching",
			Dep: Dependency{Query: "?- seed(X)."},
			RunFn: func(_ context.Context, k *kb.KB) (Report, error) {
				runs++
				k.Facts("published") // read only to rewrite it
				k.RetractPredicate("published")
				k.Assert("published", tup(k.Value("test.limit").(int)))
				return Report{FactsAsserted: 1}, nil
			},
		},
	})
	k.Assert("seed", tup(1))
	o := NewOrchestrator(k, reg)
	ctx := context.Background()
	_, _ = o.RunToQuiescence(ctx)
	want := []kb.Key{kb.FactsKey("seed"), kb.ExternalKey("test.limit")}
	if got := o.Inputs("limiter"); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("input set = %v, want %v", got, want)
	}
	// Someone else rewrites the derived key: not an input, no run.
	k.Assert("published", tup(-1))
	_, _ = o.RunToQuiescence(ctx)
	if runs != 1 {
		t.Fatalf("ran %d times: a derived key is not an input", runs)
	}
	// A value the body loads is put anew; the version does not move with a
	// PutValue, so something else has to make the transducer eligible — then
	// the moved external key makes it run.
	k.PutValue("test.limit", 20)
	_, _ = o.RunToQuiescence(ctx)
	if runs != 1 {
		t.Fatal("a PutValue alone moves no version: nothing is eligible")
	}
	k.Assert("unrelated", tup(1))
	_, _ = o.RunToQuiescence(ctx)
	if runs != 2 || !k.Has("published", tup(20)) {
		t.Fatalf("ran %d times; the moved external key must make it run", runs)
	}
}

func TestDependencyAnswerKept(t *testing.T) {
	k := kb.New()
	reg := NewRegistry()
	asks := 0
	reg.MustRegister(&Func{
		TName: "guarded", TActivity: "matching",
		Dep: Dependency{Query: "?- seed(X).", Guard: func(k *kb.KB) bool {
			asks++
			return k.HasRelation("res_a")
		}},
		RunFn: func(context.Context, *kb.KB) (Report, error) { return Report{}, nil },
	})
	k.Assert("seed", tup(1))
	o := NewOrchestrator(k, reg)
	ready := func(wantAsks int, want bool) {
		t.Helper()
		got, err := o.Eligible()
		if err != nil {
			t.Fatal(err)
		}
		if asks != wantAsks || (len(got) == 1) != want {
			t.Fatalf("asked %d times, ready %v; want %d, %v", asks, len(got) == 1, wantAsks, want)
		}
	}
	ready(1, false)
	ready(1, false) // the answer is kept
	k.Assert("other", tup(1))
	ready(1, false) // the version moved, nothing the query read did
	k.Assert("seed", tup(2))
	ready(2, false) // a predicate the query names moved
	res := relation.New(relation.NewSchema("res_a", "x"))
	k.PutRelation("res_a", res)
	ready(3, true) // the relation the guard asks about was created
	k.PutRelation("res_a", res.Shallow())
	ready(3, true) // rewriting it moves no relation name
	o.ResetEligibility()
	ready(4, true) // forgotten

	// An evaluation that fails keeps no answer: with nothing moved, the
	// dependency is asked again and, the engine's budget raised, holds.
	reg.MustRegister(&Func{
		TName: "derived", TActivity: "matching",
		Dep:   Dependency{Program: "big(X) :- seed(X).", Query: "?- big(X)."},
		RunFn: func(context.Context, *kb.KB) (Report, error) { return Report{}, nil },
	})
	budget := o.Engine.MaxFacts
	o.Engine.MaxFacts = 1
	if _, err := o.Eligible(); err == nil {
		t.Fatal("two derived facts past a budget of one: the dependency must fail")
	}
	o.Engine.MaxFacts = budget
	got, err := o.Eligible()
	if err != nil || len(got) != 2 {
		t.Fatalf("the failed dependency was not asked again: %v, %d ready", err, len(got))
	}
}

package runs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vada/internal/session"
)

// waitTerminal polls a run until it reaches a terminal state.
func waitTerminal(t *testing.T, e *Engine, id string) Run {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		run, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if run.State.Terminal() {
			return run
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("run %s never reached a terminal state", id)
	return Run{}
}

// gated returns a Func that signals started once executing and then blocks
// until release is closed or the run is cancelled.
func gated(started chan<- struct{}, release <-chan struct{}) Func {
	return func(ctx context.Context) (session.Event, error) {
		if started != nil {
			close(started)
		}
		select {
		case <-ctx.Done():
			return session.Event{}, ctx.Err()
		case <-release:
			return session.Event{Stage: "gated"}, nil
		}
	}
}

func TestSubmitAndSucceed(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	run, err := e.Submit(context.Background(), "s1", session.StageBootstrap, func(ctx context.Context) (session.Event, error) {
		return session.Event{Seq: 1, Stage: session.StageBootstrap}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.ID == "" || run.SessionID != "s1" || run.Stage != session.StageBootstrap {
		t.Fatalf("submitted run: %+v", run)
	}
	if run.State != StateQueued {
		t.Fatalf("initial state = %s, want queued", run.State)
	}
	got := waitTerminal(t, e, run.ID)
	if got.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", got.State, got.Error)
	}
	if got.Event == nil || got.Event.Stage != session.StageBootstrap {
		t.Fatalf("event = %+v, want bootstrap event", got.Event)
	}
	if got.StartedAt == nil || got.FinishedAt == nil {
		t.Fatalf("timestamps missing: %+v", got)
	}
}

func TestFailedRun(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	boom := errors.New("stage exploded")
	run, err := e.Submit(context.Background(), "s1", "feedback", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, e, run.ID)
	if got.State != StateFailed || got.Error != "stage exploded" {
		t.Fatalf("state = %s / %q, want failed / stage exploded", got.State, got.Error)
	}
	if got.Event != nil {
		t.Fatalf("failed run carries event: %+v", got.Event)
	}
}

func TestQueueDepthBound(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := e.Submit(context.Background(), "busy", "b", gated(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started // the first run occupies the worker, not the queue
	// Fill the global queue in sessions of sessionQueueDepth runs each, so no
	// session reaches its own cap first.
	for i := 0; i < queueDepth; i++ {
		if _, err := e.Submit(context.Background(), fmt.Sprintf("s%d", i/sessionQueueDepth), "b", gated(nil, release)); err != nil {
			t.Fatalf("fill queue slot %d: %v", i, err)
		}
	}
	if _, err := e.Submit(context.Background(), "fresh", "b", gated(nil, release)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-cap submit err = %v, want ErrQueueFull", err)
	}
}

func TestCancelQueuedRun(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := e.Submit(context.Background(), "s1", "b", gated(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	queued, err := e.Submit(context.Background(), "s1", "b", func(ctx context.Context) (session.Event, error) {
		ran.Store(true)
		return session.Event{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("cancelled queued run state = %s, want cancelled", got.State)
	}
	close(release)
	waitTerminal(t, e, queued.ID)
	// Give the worker a moment: the cancelled run must never execute.
	time.Sleep(20 * time.Millisecond)
	if ran.Load() {
		t.Fatal("cancelled queued run was executed")
	}
}

func TestCancelRunningMidStage(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{}) // never closed: only cancellation ends the run
	run, err := e.Submit(context.Background(), "s1", "b", gated(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	got, err := e.Cancel(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CancelRequested {
		t.Fatalf("cancel_requested not set: %+v", got)
	}
	final := waitTerminal(t, e, run.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	// Cancelling a terminal run is an idempotent no-op.
	again, err := e.Cancel(run.ID)
	if err != nil || again.State != StateCancelled {
		t.Fatalf("re-cancel: %v / %s", err, again.State)
	}
}

// TestPerSessionFIFO checks the core ordering guarantee: runs of one
// session execute strictly in submission order and never overlap, even with
// a pool of idle workers.
func TestPerSessionFIFO(t *testing.T) {
	e := New(WithWorkers(8))
	defer e.Close()
	const n = sessionQueueDepth // all of them can be pending at once
	var mu sync.Mutex
	var order []int
	var inFlight atomic.Int32
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		run, err := e.Submit(context.Background(), "s1", "b", func(ctx context.Context) (session.Event, error) {
			if c := inFlight.Add(1); c != 1 {
				t.Errorf("runs of one session interleaved (%d in flight)", c)
			}
			time.Sleep(time.Millisecond)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			inFlight.Add(-1)
			return session.Event{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = run.ID
	}
	waitTerminal(t, e, ids[n-1])
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("executed %d runs, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v != submission order", order)
		}
	}
}

// TestSessionsRunInParallel proves independent sessions spread across the
// pool: two gated runs in different sessions must be in flight at once.
func TestSessionsRunInParallel(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	release := make(chan struct{})
	defer close(release)
	started := make(chan string, 2)
	for _, sid := range []string{"a", "b"} {
		sid := sid
		if _, err := e.Submit(context.Background(), sid, "b", func(ctx context.Context) (session.Event, error) {
			started <- sid
			select {
			case <-ctx.Done():
				return session.Event{}, ctx.Err()
			case <-release:
				return session.Event{}, nil
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case sid := <-started:
			seen[sid] = true
		case <-deadline:
			t.Fatalf("sessions did not run in parallel; started: %v", seen)
		}
	}
}

// withRetention shrinks the retention ring (512 finished runs in
// production) so eviction shows after a handful of runs.
func withRetention(n int) Option {
	return func(e *Engine) { e.retention = n }
}

func TestListAndRetentionRing(t *testing.T) {
	e := New(WithWorkers(1), withRetention(2))
	defer e.Close()
	ids := make([]string, 4)
	for i := range ids {
		run, err := e.Submit(context.Background(), "s1", fmt.Sprintf("stage-%d", i), func(ctx context.Context) (session.Event, error) {
			return session.Event{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = run.ID
		waitTerminal(t, e, run.ID)
	}
	if _, err := e.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest run should be evicted, got err = %v", err)
	}
	list := e.List("s1")
	if len(list) != 2 {
		t.Fatalf("retained %d runs, want 2", len(list))
	}
	if list[0].ID != ids[2] || list[1].ID != ids[3] {
		t.Fatalf("retained wrong runs: %v", []string{list[0].ID, list[1].ID})
	}
	if got := e.List("other"); len(got) != 0 {
		t.Fatalf("List(other) = %d runs, want 0", len(got))
	}
}

func TestCancelSession(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	running, err := e.Submit(context.Background(), "s1", "b", gated(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := e.Submit(context.Background(), "s1", "b", gated(nil, release))
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Submit(context.Background(), "s2", "b", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := e.CancelSession("s1"); n != 2 {
		t.Fatalf("CancelSession touched %d runs, want 2", n)
	}
	if got := waitTerminal(t, e, running.ID); got.State != StateCancelled {
		t.Fatalf("running run state = %s, want cancelled", got.State)
	}
	if got := waitTerminal(t, e, queued.ID); got.State != StateCancelled {
		t.Fatalf("queued run state = %s, want cancelled", got.State)
	}
	if got := waitTerminal(t, e, other.ID); got.State != StateSucceeded {
		t.Fatalf("unrelated session's run state = %s, want succeeded", got.State)
	}
}

func TestCloseCancelsAndRejects(t *testing.T) {
	e := New(WithWorkers(1))
	started := make(chan struct{})
	release := make(chan struct{}) // never closed
	running, err := e.Submit(context.Background(), "s1", "b", gated(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := e.Submit(context.Background(), "s1", "b", gated(nil, release))
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	for _, id := range []string{running.ID, queued.ID} {
		run, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if run.State != StateCancelled {
			t.Fatalf("run %s state = %s after Close, want cancelled", id, run.State)
		}
	}
	if _, err := e.Submit(context.Background(), "s1", "b", gated(nil, release)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("submit after close err = %v, want ErrEngineClosed", err)
	}
}

func TestStats(t *testing.T) {
	e := New(WithWorkers(3))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := e.Submit(context.Background(), "s1", "b", gated(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Submit(context.Background(), "s1", "b", gated(nil, release)); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Workers != 3 || st.Running != 1 || st.Queued != 1 {
		t.Fatalf("stats = %+v, want 3 workers / 1 running / 1 queued", st)
	}
	close(release)
}

// TestPanicContainment: a panicking stage must become a failed run, not
// unwind the worker goroutine and kill the process; the engine keeps
// serving afterwards.
func TestPanicContainment(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	run, err := e.Submit(context.Background(), "s1", "b", func(ctx context.Context) (session.Event, error) {
		panic("stage blew up")
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, e, run.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "stage blew up") {
		t.Fatalf("panicking run = %s / %q, want failed with panic message", got.State, got.Error)
	}
	after, err := e.Submit(context.Background(), "s1", "b", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, e, after.ID); got.State != StateSucceeded {
		t.Fatalf("engine dead after panic: %s", got.State)
	}
}

// TestClosedSessionRunIsCancelled: a run that loses the race with session
// teardown (stage returns session.ErrClosed) reports cancelled, not failed
// — the client asked for the teardown.
func TestClosedSessionRunIsCancelled(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	run, err := e.Submit(context.Background(), "s1", "b", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, session.ErrClosed
	})
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, e, run.ID)
	if got.State != StateCancelled {
		t.Fatalf("closed-session run = %s (%s), want cancelled", got.State, got.Error)
	}
}

// stageEv is a shorthand stage-event Func.
func stageEv(stage string) Func {
	return func(ctx context.Context) (session.Event, error) {
		return session.Event{Stage: stage}, nil
	}
}

// TestSubmitPlan runs a three-stage plan as one run: stages execute in
// order on one worker, the run records every completed stage event, and
// the terminal snapshot carries the last event.
func TestSubmitPlan(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	var order []string
	var mu sync.Mutex
	mark := func(stage string) Func {
		return func(ctx context.Context) (session.Event, error) {
			mu.Lock()
			order = append(order, stage)
			mu.Unlock()
			return session.Event{Stage: stage}, nil
		}
	}
	stages := []string{"a", "b", "c"}
	run, err := e.submitPlan(context.Background(), "s1", stages, []Func{mark("a"), mark("b"), mark("c")})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Plan) != 3 || run.Stage != "a" || run.StageIndex != 0 {
		t.Fatalf("submitted plan run: %+v", run)
	}
	final := waitTerminal(t, e, run.ID)
	if final.State != StateSucceeded {
		t.Fatalf("plan finished as %s (%s)", final.State, final.Error)
	}
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	if got != "a,b,c" {
		t.Fatalf("stage order = %q", got)
	}
	if len(final.Events) != 3 || final.Events[0].Stage != "a" || final.Events[2].Stage != "c" {
		t.Fatalf("plan events = %+v", final.Events)
	}
	if final.Event == nil || final.Event.Stage != "c" {
		t.Fatalf("last event = %+v", final.Event)
	}
	if final.Stage != "c" || final.StageIndex != 2 || final.StageCount() != 3 {
		t.Fatalf("final cursor = %s %d/%d", final.Stage, final.StageIndex, final.StageCount())
	}
}

func TestSubmitPlanValidation(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	if _, err := e.submitPlan(context.Background(), "s1", nil, nil); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("empty plan err = %v", err)
	}
	if _, err := e.submitPlan(context.Background(), "s1", []string{"a", "b"}, []Func{stageEv("a")}); !errors.Is(err, ErrBadPlan) {
		t.Fatalf("mismatched plan err = %v", err)
	}
}

// TestSingleStagePlanRecordsEvents guards the plan/non-plan distinction:
// even a one-stage plan is a plan run, with Plan and Events populated.
func TestSingleStagePlanRecordsEvents(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	run, err := e.submitPlan(context.Background(), "s1", []string{"a"}, []Func{stageEv("a")})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, e, run.ID)
	if final.State != StateSucceeded || len(final.Plan) != 1 {
		t.Fatalf("single-stage plan run = %+v", final)
	}
	if len(final.Events) != 1 || final.Events[0].Stage != "a" {
		t.Fatalf("single-stage plan events = %+v", final.Events)
	}
}

// TestPlanMidFailure checks that a failing stage stops the plan: completed
// stage events are kept, the failing stage is the run's cursor, and the
// remaining stages never execute.
func TestPlanMidFailure(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	var ran atomic.Int32
	boom := errors.New("boom")
	run, err := e.submitPlan(context.Background(), "s1", []string{"a", "fail", "never"}, []Func{
		stageEv("a"),
		func(ctx context.Context) (session.Event, error) { return session.Event{}, boom },
		func(ctx context.Context) (session.Event, error) {
			ran.Add(1)
			return session.Event{Stage: "never"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, e, run.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "boom") {
		t.Fatalf("plan finished as %s (%q)", final.State, final.Error)
	}
	if final.Stage != "fail" || final.StageIndex != 1 {
		t.Fatalf("failure cursor = %s %d", final.Stage, final.StageIndex)
	}
	if len(final.Events) != 1 || final.Events[0].Stage != "a" {
		t.Fatalf("completed events = %+v", final.Events)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("stage after failure ran %d times", n)
	}
}

// TestPlanCancelMidway cancels a plan while its first stage blocks: the
// run terminates cancelled and the remaining stages never execute.
func TestPlanCancelMidway(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	started := make(chan struct{})
	var ran atomic.Int32
	run, err := e.submitPlan(context.Background(), "s1", []string{"block", "never"}, []Func{
		gated(started, nil),
		func(ctx context.Context) (session.Event, error) { ran.Add(1); return session.Event{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := e.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, e, run.ID)
	if final.State != StateCancelled {
		t.Fatalf("cancelled plan state = %s", final.State)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("stage after cancel ran %d times", n)
	}
}

// TestSessionQueueCap checks run-engine fairness: one session's pending
// backlog is capped with ErrQueueFull while other sessions keep
// submitting against the same engine.
func TestSessionQueueCap(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	// Occupy the only worker so everything else queues.
	if _, err := e.Submit(context.Background(), "greedy", "block", gated(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < sessionQueueDepth; i++ {
		if _, err := e.Submit(context.Background(), "greedy", "q", stageEv("q")); err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
	}
	if _, err := e.Submit(context.Background(), "greedy", "q", stageEv("q")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over session cap err = %v", err)
	}
	// Plans count as one queued run and hit the same cap.
	if _, err := e.submitPlan(context.Background(), "greedy", []string{"a"}, []Func{stageEv("a")}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("plan over session cap err = %v", err)
	}
	// An independent session is unaffected by the greedy one's backlog.
	if _, err := e.Submit(context.Background(), "polite", "q", stageEv("q")); err != nil {
		t.Fatalf("independent session blocked: %v", err)
	}
}

// TestNotifyTransitions checks the transition stream contract: every state
// change of a plan run is published, in order, from queued through per-stage
// progress to the terminal state.
func TestNotifyTransitions(t *testing.T) {
	var mu sync.Mutex
	byRun := map[string][]session.RunTransition{}
	e := New(WithWorkers(2), WithObserver(Observer{Transition: func(r Run) {
		mu.Lock()
		byRun[r.ID] = append(byRun[r.ID], r.Transition())
		mu.Unlock()
	}}))
	defer e.Close()

	run, err := e.submitPlan(context.Background(), "s1", []string{"a", "b"}, []Func{stageEv("a"), stageEv("b")})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, run.ID)
	mu.Lock()
	trs := append([]session.RunTransition(nil), byRun[run.ID]...)
	mu.Unlock()
	want := []struct {
		state string
		idx   int
	}{
		{"queued", 0}, {"running", 0}, {"running", 1}, {"succeeded", 1},
	}
	if len(trs) != len(want) {
		t.Fatalf("transitions = %+v, want %d", trs, len(want))
	}
	for i, w := range want {
		if trs[i].State != w.state || trs[i].StageIndex != w.idx || trs[i].StageCount != 2 {
			t.Fatalf("transition %d = %+v, want %s at stage %d/2", i, trs[i], w.state, w.idx)
		}
	}

	// A queued run cancelled before running transitions queued → cancelled.
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := e.Submit(context.Background(), "s2", "block", gated(started, release)); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := e.Submit(context.Background(), "s2", "q", stageEv("q"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitTerminal(t, e, queued.ID)
	mu.Lock()
	qtrs := append([]session.RunTransition(nil), byRun[queued.ID]...)
	mu.Unlock()
	if len(qtrs) != 2 || qtrs[0].State != "queued" || qtrs[1].State != "cancelled" {
		t.Fatalf("queued-cancel transitions = %+v", qtrs)
	}
}

func TestAdopt(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	now := time.Now().UTC()
	fin := now.Add(time.Second)
	restored := []Run{
		{ID: "r0001-old", SessionID: "sA", Stage: "bootstrap", State: StateSucceeded,
			CreatedAt: now, StartedAt: &now, FinishedAt: &fin,
			Event: &session.Event{Seq: 1, Stage: "bootstrap"}},
		{ID: "r0002-old", SessionID: "sA", Stage: "feedback", State: StateFailed,
			CreatedAt: now, Error: "boom"},
		{ID: "r0003-live", SessionID: "sA", State: StateRunning, CreatedAt: now}, // non-terminal: skipped
	}
	if n := e.Adopt(restored); n != 2 {
		t.Fatalf("Adopt = %d, want 2", n)
	}
	// Duplicates are skipped on re-adoption.
	if n := e.Adopt(restored[:2]); n != 0 {
		t.Fatalf("re-Adopt = %d, want 0", n)
	}
	got, err := e.Get("r0001-old")
	if err != nil || got.State != StateSucceeded || got.Event == nil || got.Event.Stage != "bootstrap" {
		t.Fatalf("adopted run = %+v (%v)", got, err)
	}
	if _, err := e.Get("r0003-live"); err == nil {
		t.Fatal("non-terminal run should not be adopted")
	}

	// Adopted history lists before newly-submitted runs, and new runs still
	// execute normally.
	run, err := e.Submit(context.Background(), "sA", "bootstrap", func(ctx context.Context) (session.Event, error) {
		return session.Event{Stage: "bootstrap"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, e, run.ID)
	list := e.List("sA")
	if len(list) != 3 || list[0].ID != "r0001-old" || list[1].ID != "r0002-old" || list[2].ID != run.ID {
		t.Fatalf("list order = %v", list)
	}
}

func TestAdoptRespectsRetention(t *testing.T) {
	e := New(WithWorkers(1), withRetention(2))
	defer e.Close()
	now := time.Now()
	rs := []Run{
		{ID: "a", SessionID: "s", State: StateSucceeded, CreatedAt: now},
		{ID: "b", SessionID: "s", State: StateSucceeded, CreatedAt: now},
		{ID: "c", SessionID: "s", State: StateSucceeded, CreatedAt: now},
	}
	if n := e.Adopt(rs); n != 3 {
		t.Fatalf("Adopt = %d", n)
	}
	if _, err := e.Get("a"); err == nil {
		t.Fatal("oldest adopted run should have been evicted by retention")
	}
	if got := e.List("s"); len(got) != 2 {
		t.Fatalf("retained %d, want 2", len(got))
	}
}

// TestWaitSession proves WaitSession observes the worker's terminal
// bookkeeping, not just the stage function returning.
func TestWaitSession(t *testing.T) {
	e := New(WithWorkers(2))
	defer e.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	run, err := e.Submit(context.Background(), "sA", "slow", gated(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// An unrelated session keeps a worker busy; it must not delay the wait.
	otherStarted := make(chan struct{})
	otherRelease := make(chan struct{})
	defer close(otherRelease)
	if _, err := e.Submit(context.Background(), "sB", "other", gated(otherStarted, otherRelease)); err != nil {
		t.Fatal(err)
	}
	<-otherStarted

	e.CancelSession("sA")
	done := make(chan struct{})
	go func() {
		e.WaitSession("sA")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitSession never returned after CancelSession")
	}
	// After the wait, the run's record is terminal — no polling needed.
	got, err := e.Get(run.ID)
	if err != nil || !got.State.Terminal() {
		t.Fatalf("run after WaitSession = %+v (%v)", got, err)
	}
	// Waiting on a session with no runs returns immediately.
	e.WaitSession("nope")
}

// TestListTerminal pins what a session snapshot holds: only terminal runs of
// the named session, in submission order, live runs excluded.
func TestListTerminal(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()

	ok := func(ctx context.Context) (session.Event, error) { return session.Event{}, nil }
	r1, err := e.Submit(context.Background(), "s1", "a", ok)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Submit(context.Background(), "s1", "b", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), "other", "c", ok); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	live, err := e.Submit(context.Background(), "s1", "blocker", func(ctx context.Context) (session.Event, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return session.Event{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // r1 and r2 are terminal, the blocker is running
	got := e.ListTerminal("s1")
	if len(got) != 2 || got[0].ID != r1.ID || got[1].ID != r2.ID {
		t.Fatalf("terminal runs = %+v", got)
	}
	for _, r := range got {
		if !r.State.Terminal() {
			t.Fatalf("non-terminal run listed: %+v", r)
		}
	}
	close(release)
	waitTerminal(t, e, live.ID)
	if got := e.ListTerminal("s1"); len(got) != 3 {
		t.Fatalf("after blocker finished: %d terminal runs, want 3", len(got))
	}
}

// submitPlan enqueues stages[i] as fns[i], in order, as one plan run.
func (e *Engine) submitPlan(ctx context.Context, sessionID string, stages []string, fns []Func) (Submission, error) {
	if len(stages) == 0 || len(stages) != len(fns) {
		return Submission{}, fmt.Errorf("%w: %d stages, %d functions", ErrBadPlan, len(stages), len(fns))
	}
	calls := make([]call, len(fns))
	for i, fn := range fns {
		calls[i] = call{fn: fn}
	}
	return e.submit(ctx, sessionID, stages, calls, true)
}

// TestRunCommitsOnce pins the commit protocol: a run's terminal record is
// written once, outside the engine lock, while the run still reads running,
// with the requests its completed stages applied, in order; and only once
// the record has returned is the run published terminal, as recorded.
func TestRunCommitsOnce(t *testing.T) {
	var (
		e        *Engine
		mu       sync.Mutex
		log      []string
		recorded []Run
		applied  [][]session.StageRequest
	)
	note := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	e = New(WithWorkers(1), WithObserver(Observer{Record: func(_ context.Context, r Run, reqs []session.StageRequest) {
		if got, err := e.Get(r.ID); err != nil || got.State != StateRunning {
			t.Errorf("record sees the run %s (%v), want it still running", got.State, err)
		}
		note("record")
		mu.Lock()
		recorded = append(recorded, r)
		applied = append(applied, reqs)
		mu.Unlock()
	}}))
	defer e.Close()
	stage := func(name string) call {
		return call{
			fn: func(context.Context) (session.Event, error) {
				note(name)
				if name == "fail" {
					return session.Event{}, errors.New("boom")
				}
				return session.Event{Stage: name}, nil
			},
			applied: func() session.StageRequest { return session.StageRequest{Stage: name + "-applied"} },
		}
	}
	sub, err := e.submit(context.Background(), "s1", []string{"a", "b"}, []call{stage("a"), stage("b")}, true)
	if err != nil {
		t.Fatal(err)
	}
	final, err := sub.Wait(context.Background())
	if err != nil || final.State != StateSucceeded {
		t.Fatalf("plan = %s, %v", final.State, err)
	}
	failing, err := e.submit(context.Background(), "s1", []string{"c", "fail", "never"}, []call{stage("c"), stage("fail"), stage("never")}, true)
	if err != nil {
		t.Fatal(err)
	}
	if run, _ := failing.Wait(context.Background()); run.State != StateFailed {
		t.Fatalf("failing plan = %s", run.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := "a b record c fail record"; strings.Join(log, " ") != want {
		t.Fatalf("commit order = %q, want %q", strings.Join(log, " "), want)
	}
	if len(recorded) != 2 || !reflect.DeepEqual(recorded[0], final) {
		t.Fatalf("recorded %+v, published %+v", recorded, final)
	}
	want := [][]session.StageRequest{{{Stage: "a-applied"}, {Stage: "b-applied"}}, {{Stage: "c-applied"}}}
	if !reflect.DeepEqual(applied, want) {
		t.Fatalf("recorded requests %v, want %v", applied, want)
	}
}

// TestWaitOutcome: a waiter gets the stage's own error value, ErrCancelled
// for a cancelled run — queued or running, by Cancel or by its own context
// ending — and the outcome even once the run has left the retention ring.
func TestWaitOutcome(t *testing.T) {
	var recorded []string
	var mu sync.Mutex
	e := New(WithWorkers(1), withRetention(1), WithObserver(Observer{Record: func(_ context.Context, r Run, _ []session.StageRequest) {
		mu.Lock()
		recorded = append(recorded, r.ID+":"+string(r.State))
		mu.Unlock()
	}}))
	defer e.Close()
	ctx := context.Background()
	boom := errors.New("boom")
	failed, err := e.Submit(ctx, "s1", "fail", func(context.Context) (session.Event, error) {
		return session.Event{}, fmt.Errorf("stage: %w", boom)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failed.Wait(ctx); !errors.Is(err, boom) {
		t.Fatalf("failed run waits with %v, want the stage's error", err)
	}
	// Two more runs push the failed one out of a ring of one.
	for i := 0; i < 2; i++ {
		sub, err := e.Submit(ctx, "s1", "ok", stageEv("ok"))
		if err != nil {
			t.Fatal(err)
		}
		sub.Wait(ctx)
	}
	if _, err := e.Get(failed.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the failed run is still retained: %v", err)
	}
	if run, err := failed.Wait(ctx); !errors.Is(err, boom) || run.State != StateFailed {
		t.Fatalf("evicted run waits with %s, %v", run.State, err)
	}

	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	running, err := e.Submit(ctx, "s1", "hold", gated(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := e.Submit(ctx, "s1", "q", stageEv("q"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := recorded[len(recorded)-1]
	mu.Unlock()
	if last != queued.ID+":cancelled" {
		t.Fatalf("Cancel of a queued run recorded %q last", last)
	}
	if _, err := queued.Wait(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued-cancelled run waits with %v, want ErrCancelled", err)
	}
	gone, cancel := context.WithCancel(ctx)
	cancel()
	if run, err := running.Wait(gone); !errors.Is(err, ErrCancelled) || run.State != StateCancelled {
		t.Fatalf("a waiter whose context ended got %s, %v; want the run cancelled", run.State, err)
	}
}

// TestRunTableBounded is the run table's part of a long-lived session's
// audit: after three retention rings' worth of single-stage runs on one
// session, the engine keeps the ring and nothing else.
func TestRunTableBounded(t *testing.T) {
	const retention = 4
	e := New(WithWorkers(2), withRetention(retention))
	defer e.Close()
	for i := 0; i < 3*retention; i++ {
		sub, err := e.Submit(context.Background(), "s1", "ok", stageEv("ok"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.tasks) > retention || len(e.done) > retention || len(e.queues) != 0 {
		t.Fatalf("run table holds %d tasks, %d finished, %d queues; want at most %d, %d and none",
			len(e.tasks), len(e.done), len(e.queues), retention, retention)
	}
}

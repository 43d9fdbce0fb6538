package runs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"vada/internal/metrics"
	"vada/internal/session"
	"vada/internal/trace"
)

// Func is the work one stage of a run performs: a pay-as-you-go stage
// driven to quiescence under the run's cancellation context.
type Func func(ctx context.Context) (session.Event, error)

// A call is one stage of a run: the work, and — for a stage bound from a
// request — the request it applied, asked once it has run (session.Applied).
type call struct {
	fn      Func
	applied func() session.StageRequest
}

// task is the engine's mutable bookkeeping for one run; all fields are
// guarded by the engine mutex except ctx/cancel, which are immutable
// after creation, and calls, which only the owning worker indexes. span is
// the run's trace span (nil when the submitter's context carried none);
// it parents the queue-wait and per-stage spans and ends with the run.
// done is closed once the run is terminal, and err is then the error its
// waiter gets.
type task struct {
	run    Run
	seq    uint64
	calls  []call
	ctx    context.Context
	cancel context.CancelFunc
	span   *trace.Span
	done   chan struct{}
	err    error
}

// sessionQueue is the FIFO of pending tasks for one session. At most one
// worker owns a queue at any moment (scheduled), which is what serialises
// runs of a session while independent sessions spread across the pool.
type sessionQueue struct {
	id        string
	pending   []*task
	scheduled bool
}

// Engine is the worker-pool run engine. Create one with New and stop it
// with Close; all methods are safe for concurrent use.
type Engine struct {
	workers   int
	retention int // retainedRuns; tests shrink it
	obs       Observer
	reg       *metrics.Registry

	mu         sync.Mutex
	cond       *sync.Cond
	idle       *sync.Cond               // broadcast whenever a run reaches a terminal state
	tasks      map[string]*task         // by run ID: live runs + retention ring
	done       []string                 // finished run IDs, oldest first
	queues     map[string]*sessionQueue // by session ID
	ready      []*sessionQueue          // queues with work and no active worker
	queued     int
	queuedHigh int // high-water mark of queued, over the engine's lifetime
	running    int
	seq        uint64
	closed     bool
	wg         sync.WaitGroup
}

// DefaultWorkers is the worker-pool size of an engine built without
// WithWorkers.
const DefaultWorkers = 8

// The engine's caps on runs waiting for a worker: across all sessions, and
// per session — the fairness guard that stops one chatty session from
// monopolising the global queue. Submit fails with ErrQueueFull beyond
// either. retainedRuns is how many finished runs stay pollable.
const (
	queueDepth        = 256
	sessionQueueDepth = 16
	retainedRuns      = 512
)

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the worker-pool size (DefaultWorkers when n is not
// positive).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// Observer is what the service around an engine sees of its runs. Either
// hook may be nil.
type Observer struct {
	// Transition is called on every run state transition (queued, running,
	// per-stage progress, terminal) with the run snapshot. Transitions of one
	// run arrive in order. It runs under the engine lock and must be fast and
	// MUST NOT call back into the engine; publishing to session subscribers
	// (which never blocks) is the intended use.
	Transition func(Run)
	// Record is called once with the terminal snapshot of every run a worker
	// finishes, and the requests its stages applied, in order (those bound
	// from a request: SubmitStage, SubmitPlan), outside the engine lock and
	// before the snapshot is published; and with every run Cancel takes out of
	// its queue, once that is published. ctx carries the run's trace span. It
	// returns once the run's record is durable, so a worker's run is durable
	// before anyone can observe it terminal.
	Record func(ctx context.Context, run Run, applied []session.StageRequest)
}

// WithObserver installs the run observer.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.obs = o }
}

// WithMetrics instruments the engine: queue depth and high-water gauges
// (runs_queued, runs_queued_high_water, runs_running), queue-wait and
// per-stage duration histograms (runs_queue_wait_seconds,
// runs_stage_seconds{stage}), terminal-state counters
// (runs_completed_total{state}, runs_cancelled_total) and ErrQueueFull
// rejections (runs_queue_rejections_total{limit}).
func WithMetrics(reg *metrics.Registry) Option {
	return func(e *Engine) { e.reg = reg }
}

// New builds an engine and starts its worker pool.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers:   DefaultWorkers,
		retention: retainedRuns,
		tasks:     map[string]*task{},
		queues:    map[string]*sessionQueue{},
	}
	for _, opt := range opts {
		opt(e)
	}
	e.cond = sync.NewCond(&e.mu)
	e.idle = sync.NewCond(&e.mu)
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
	return e
}

// Submission is an accepted run: the queued snapshot, and a handle on the
// run's outcome that holds however soon the run leaves the retention ring.
type Submission struct {
	Run
	t *task
	e *Engine
}

// Wait blocks until the run is terminal and returns its final snapshot and
// the error of the stage that failed it — the stage's own error value, or
// ErrCancelled for a cancelled run. If ctx ends first the run is cancelled,
// and Wait returns once the run has observed that.
func (s Submission) Wait(ctx context.Context) (Run, error) {
	select {
	case <-s.t.done:
	case <-ctx.Done():
		s.e.Cancel(s.ID) // a run that finished meanwhile is a no-op
		<-s.t.done
	}
	return s.t.run, s.t.err // final once done is closed
}

// Submit enqueues one stage invocation against a session and returns the
// queued run. Runs of one session execute in submission order. The context
// is used for trace propagation only — when it carries a span (the HTTP
// root), the run records a child span covering queue wait and every stage —
// it does NOT bound the run's lifetime: the run outlives the submitting
// request unless its submitter waits for it, and is cancelled via
// Cancel/CancelSession.
func (e *Engine) Submit(ctx context.Context, sessionID, stage string, fn Func) (Submission, error) {
	return e.submit(ctx, sessionID, []string{stage}, []call{{fn: fn}}, false)
}

// SubmitStage submits one stage request against a session as a single-stage
// run. The stage is resolved and its payload decoded (session.Resolve) before
// anything is enqueued, so a malformed request fails with
// session.ErrUnknownStage or session.ErrBadPayload and enqueues nothing. ctx
// carries the caller's trace (see Submit).
func (e *Engine) SubmitStage(ctx context.Context, sess *session.Session, req session.StageRequest) (Submission, error) {
	name, c, err := bind(sess, req)
	if err != nil {
		return Submission{}, err
	}
	return e.submit(ctx, sess.ID(), []string{name}, []call{c}, false)
}

// bind resolves a stage request and binds the stage to the session.
func bind(sess *session.Session, req session.StageRequest) (string, call, error) {
	st, payload, err := session.Resolve(req)
	if err != nil {
		return "", call{}, err
	}
	return st.Name, call{
		fn:      func(ctx context.Context) (session.Event, error) { return st.Apply(ctx, sess, payload) },
		applied: func() session.StageRequest { return session.Applied(req, payload) },
	}, nil
}

// SubmitPlan submits a declarative Plan as one cancellable run: the stages
// execute back to back on a single worker under one context, a failing stage
// stops the remaining ones, and every transition (running, stage k/n,
// terminal) is published through the observer. Every stage is resolved
// (session.Resolve) and its payload decoded before anything is enqueued, so
// a malformed plan is rejected whole (ErrBadPlan for an empty one,
// session.ErrUnknownStage/ErrBadPayload otherwise) — no partial execution.
// ctx carries the caller's trace (see Submit).
func (e *Engine) SubmitPlan(ctx context.Context, sess *session.Session, plan session.Plan) (Submission, error) {
	if len(plan.Stages) == 0 {
		return Submission{}, fmt.Errorf("%w: empty plan", ErrBadPlan)
	}
	stages := make([]string, len(plan.Stages))
	calls := make([]call, len(plan.Stages))
	for i, req := range plan.Stages {
		var err error
		if stages[i], calls[i], err = bind(sess, req); err != nil {
			return Submission{}, fmt.Errorf("plan stage %d: %w", i, err)
		}
	}
	return e.submit(ctx, sess.ID(), stages, calls, true)
}

func (e *Engine) submit(ctx context.Context, sessionID string, stages []string, calls []call, isPlan bool) (Submission, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Submission{}, ErrEngineClosed
	}
	if e.queued >= queueDepth {
		if e.reg != nil {
			e.reg.Counter(metrics.Name("runs_queue_rejections_total", "limit", "global")).Inc()
		}
		return Submission{}, fmt.Errorf("%w (max %d queued)", ErrQueueFull, queueDepth)
	}
	if q := e.queues[sessionID]; q != nil && len(q.pending) >= sessionQueueDepth {
		if e.reg != nil {
			e.reg.Counter(metrics.Name("runs_queue_rejections_total", "limit", "session")).Inc()
		}
		return Submission{}, fmt.Errorf("%w (session %s: max %d pending)", ErrQueueFull, sessionID, sessionQueueDepth)
	}
	e.seq++
	runCtx, cancel := context.WithCancel(context.Background())
	t := &task{
		run: Run{
			ID:        fmt.Sprintf("r%04d-%s", e.seq, randomSuffix()),
			SessionID: sessionID,
			Stage:     stages[0],
			State:     StateQueued,
			CreatedAt: time.Now(),
		},
		seq:    e.seq,
		calls:  calls,
		ctx:    runCtx,
		cancel: cancel,
		done:   make(chan struct{}),
	}
	if isPlan {
		t.run.Plan = append([]string(nil), stages...)
	}
	// The run span parents everything the run does. The submitter's span
	// is its parent, but the run's *lifetime* context stays detached — a
	// finished HTTP request must not cancel the run it enqueued.
	if parent := trace.FromContext(ctx); parent != nil {
		t.span = parent.Child("run", "run", t.run.ID, "session", sessionID)
		if isPlan {
			t.span.SetAttr("plan", strings.Join(stages, ","))
		}
		t.ctx = trace.NewContext(runCtx, t.span)
	}
	e.tasks[t.run.ID] = t
	e.queued++
	if e.queued > e.queuedHigh {
		e.queuedHigh = e.queued
	}
	e.gaugesLocked()
	q, ok := e.queues[sessionID]
	if !ok {
		q = &sessionQueue{id: sessionID}
		e.queues[sessionID] = q
	}
	q.pending = append(q.pending, t)
	if !q.scheduled {
		q.scheduled = true
		e.ready = append(e.ready, q)
		e.cond.Signal()
	}
	e.notifyLocked(t.run)
	return Submission{Run: t.run, t: t, e: e}, nil
}

// notifyLocked publishes a run snapshot to the transition hook. Callers
// hold e.mu, which is what serialises transitions into submission order.
func (e *Engine) notifyLocked(r Run) {
	if e.obs.Transition != nil {
		e.obs.Transition(r)
	}
}

// worker executes runs: it takes exclusive ownership of one session queue,
// runs its head task, and re-queues the session while work remains.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for !e.closed && len(e.ready) == 0 {
			e.cond.Wait()
		}
		if len(e.ready) == 0 { // closed and drained
			e.mu.Unlock()
			return
		}
		q := e.ready[0]
		e.ready = e.ready[1:]
		if len(q.pending) == 0 { // head runs were cancelled while queued
			e.releaseLocked(q)
			e.mu.Unlock()
			continue
		}
		t := q.pending[0]
		q.pending = q.pending[1:]
		e.queued--
		e.running++
		now := time.Now()
		t.run.State = StateRunning
		t.run.StartedAt = &now
		if e.reg != nil {
			e.reg.Histogram("runs_queue_wait_seconds").Observe(now.Sub(t.run.CreatedAt).Seconds())
		}
		// Retroactive queue-wait span: the wait began at submission, and
		// ends right now as the worker picks the run up.
		t.span.ChildAt("queue-wait", t.run.CreatedAt).End()
		e.gaugesLocked()
		e.notifyLocked(t.run)
		e.mu.Unlock()

		ev, applied, err := e.runTask(t)

		// The run commits once: its record is written and made durable before
		// anyone can observe the run terminal or the session's next run starts.
		e.mu.Lock()
		final, err := outcome(t.run, ev, err)
		e.mu.Unlock()
		if e.obs.Record != nil {
			e.obs.Record(t.ctx, final, applied)
		}

		e.mu.Lock()
		e.running--
		e.finishLocked(t, final, err)
		e.releaseLocked(q)
		e.gaugesLocked()
		e.mu.Unlock()
	}
}

// runTask executes a run's stages back to back, returning the last stage
// event, the requests the stages that completed applied, and the first error.
// Between stages it checks the run context (so a mid-plan cancel stops the
// remaining stages), advances the run's stage cursor, and publishes the stage
// k/n progress transition.
func (e *Engine) runTask(t *task) (last session.Event, applied []session.StageRequest, _ error) {
	for i, c := range t.calls {
		if i > 0 {
			select {
			case <-t.ctx.Done():
				return last, applied, context.Canceled
			default:
			}
			e.mu.Lock()
			t.run.StageIndex = i
			t.run.Stage = t.run.Plan[i]
			e.notifyLocked(t.run)
			e.mu.Unlock()
		}
		t0 := time.Now()
		ev, err := runStage(t.ctx, c.fn)
		if e.reg != nil {
			e.mu.Lock()
			stage := t.run.Stage
			e.mu.Unlock()
			e.reg.Histogram(metrics.Name("runs_stage_seconds", "stage", stage)).ObserveSince(t0)
		}
		if err != nil {
			return last, applied, err
		}
		last = ev
		if c.applied != nil {
			applied = append(applied, c.applied())
		}
		if len(t.run.Plan) > 0 {
			e.mu.Lock()
			// Copy-on-append: Run snapshots escape the lock, so the slice
			// they hold must never be appended to in place.
			t.run.Events = append(append([]session.Event(nil), t.run.Events...), ev)
			e.mu.Unlock()
		}
	}
	return last, applied, nil
}

// runStage executes one stage function of a run, containing panics: a
// panicking stage must not unwind a worker goroutine and kill the whole
// process — it becomes a failed run instead.
func runStage(ctx context.Context, fn Func) (ev session.Event, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runs: stage panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// releaseLocked hands a worker's queue back: re-ready it if work remains,
// otherwise drop it from the session map. Callers hold e.mu.
func (e *Engine) releaseLocked(q *sessionQueue) {
	if len(q.pending) > 0 {
		e.ready = append(e.ready, q)
		e.cond.Signal()
		return
	}
	q.scheduled = false
	delete(e.queues, q.id)
}

// outcome is the terminal snapshot of run r for its stages' outcome, and the
// error a waiter gets for it. Callers hold e.mu, which guards r.
func outcome(r Run, ev session.Event, err error) (Run, error) {
	now := time.Now()
	r.FinishedAt = &now
	switch {
	case err == nil:
		r.State = StateSucceeded
		r.Event = &ev
	case errors.Is(err, session.ErrClosed):
		// The session was torn down while the run was in hand (close cancels
		// runs; the closed-session check can win the race) — the client
		// asked for the teardown, so report cancelled.
		r.State, r.Error = StateCancelled, "cancelled"
	case errors.Is(err, context.Canceled):
		r.State, r.Error = StateCancelled, "cancelled"
		err = ErrCancelled
	default:
		r.State, r.Error = StateFailed, err.Error()
	}
	return r, err
}

// finishLocked publishes a task's terminal snapshot, moves the task into the
// retention ring, evicting the oldest finished runs beyond the cap, and
// releases its waiter. Callers hold e.mu.
func (e *Engine) finishLocked(t *task, final Run, err error) {
	t.run, t.err = final, err
	t.cancel()
	if t.span != nil {
		t.span.SetAttr("state", string(t.run.State))
		if t.run.Error != "" {
			t.span.EndErr(errors.New(t.run.Error))
		} else {
			t.span.End()
		}
	}
	// Release the stage closures: they capture the session (and through it
	// the whole wrangler/KB), which must not stay reachable for as long as
	// the retention ring keeps the finished run pollable.
	t.calls, t.ctx, t.cancel, t.span = nil, nil, nil, nil
	e.done = append(e.done, t.run.ID)
	for len(e.done) > e.retention {
		delete(e.tasks, e.done[0])
		e.done = e.done[1:]
	}
	if e.reg != nil {
		e.reg.Counter(metrics.Name("runs_completed_total", "state", string(t.run.State))).Inc()
		if t.run.State == StateCancelled {
			e.reg.Counter("runs_cancelled_total").Inc()
		}
		if t.run.StartedAt != nil {
			e.reg.Histogram("runs_duration_seconds").Observe(t.run.FinishedAt.Sub(*t.run.StartedAt).Seconds())
		}
	}
	e.notifyLocked(t.run)
	e.idle.Broadcast()
	close(t.done)
}

// gaugesLocked refreshes the queue-level gauges. Callers hold e.mu; gauge
// stores are atomic, so the reads in Snapshot never block on the engine.
func (e *Engine) gaugesLocked() {
	if e.reg == nil {
		return
	}
	e.reg.Gauge("runs_queued").Set(int64(e.queued))
	e.reg.Gauge("runs_queued_high_water").Max(int64(e.queuedHigh))
	e.reg.Gauge("runs_running").Set(int64(e.running))
}

// Get returns a snapshot of the run with the given ID, or ErrNotFound for
// unknown or already-evicted runs.
func (e *Engine) Get(id string) (Run, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[id]
	if !ok {
		return Run{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return t.run, nil
}

// List returns snapshots of every retained run of a session in submission
// order; an empty session ID lists all runs.
func (e *Engine) List(sessionID string) []Run {
	e.mu.Lock()
	tasks := make([]*task, 0, len(e.tasks))
	for _, t := range e.tasks {
		if sessionID == "" || t.run.SessionID == sessionID {
			tasks = append(tasks, t)
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].seq < tasks[j].seq })
	out := make([]Run, len(tasks))
	for i, t := range tasks {
		out[i] = t.run
	}
	e.mu.Unlock()
	return out
}

// ListTerminal returns snapshots of every retained run of a session that
// has reached a terminal state, in submission order — the set a session
// snapshot holds.
func (e *Engine) ListTerminal(sessionID string) []Run {
	all := e.List(sessionID)
	out := all[:0]
	for _, r := range all {
		if r.State.Terminal() {
			out = append(out, r)
		}
	}
	return out
}

// Cancel requests cancellation of a run. A queued run is removed from its
// session queue, finalised as cancelled immediately and recorded through the
// observer before Cancel returns; a running run has its context cancelled
// and reaches StateCancelled when the stage observes it (CancelRequested is
// set in the meantime). Cancelling a terminal run is a no-op. The returned
// snapshot reflects the state after the request.
func (e *Engine) Cancel(id string) (Run, error) {
	e.mu.Lock()
	t, ok := e.tasks[id]
	if !ok {
		e.mu.Unlock()
		return Run{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	queued := t.run.State == StateQueued
	e.cancelLocked(t)
	run := t.run
	e.mu.Unlock()
	if queued && e.obs.Record != nil {
		e.obs.Record(context.Background(), run, nil)
	}
	return run, nil
}

// cancelLocked applies Cancel's state transition. Callers hold e.mu.
func (e *Engine) cancelLocked(t *task) {
	switch t.run.State {
	case StateQueued:
		if q, ok := e.queues[t.run.SessionID]; ok {
			for i, p := range q.pending {
				if p == t {
					q.pending = append(q.pending[:i], q.pending[i+1:]...)
					e.queued--
					e.gaugesLocked()
					break
				}
			}
		}
		t.run.CancelRequested = true
		final, err := outcome(t.run, session.Event{}, context.Canceled)
		e.finishLocked(t, final, err)
	case StateRunning:
		t.run.CancelRequested = true
		t.cancel()
	}
}

// Adopt inserts already-terminal runs — typically restored from a persisted
// snapshot — into the retention ring, so Get and List serve a session's
// run history across restarts. Runs are adopted in the given order (List
// returns them after everything already retained), non-terminal runs and
// runs whose ID the engine already knows are skipped, and the retention cap
// applies as usual. It returns the number of runs adopted.
func (e *Engine) Adopt(rs []Run) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range rs {
		if !r.State.Terminal() {
			continue
		}
		if _, ok := e.tasks[r.ID]; ok {
			continue
		}
		e.seq++
		e.tasks[r.ID] = &task{run: r, seq: e.seq}
		e.done = append(e.done, r.ID)
		n++
	}
	for len(e.done) > e.retention {
		delete(e.tasks, e.done[0])
		e.done = e.done[1:]
	}
	return n
}

// WaitSession blocks until the session has no queued or running runs. It
// closes the gap between a stage releasing the session and the worker
// recording the run's terminal state: cancel a session's runs, then
// WaitSession before reading its run history, and every record is final.
// Runs of other sessions keep the engine busy without delaying the wait.
func (e *Engine) WaitSession(sessionID string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.liveLocked(sessionID) {
		e.idle.Wait()
	}
}

// liveLocked reports whether any run of the session is non-terminal.
// Callers hold e.mu.
func (e *Engine) liveLocked(sessionID string) bool {
	for _, t := range e.tasks {
		if t.run.SessionID == sessionID && !t.run.State.Terminal() {
			return true
		}
	}
	return false
}

// CancelSession cancels every live run of a session — the close/evict path
// of the service — and returns how many runs it touched.
func (e *Engine) CancelSession(sessionID string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, t := range e.tasks {
		if t.run.SessionID == sessionID && !t.run.State.Terminal() {
			e.cancelLocked(t)
			n++
		}
	}
	return n
}

// Stats summarises the engine for health reporting: pool-level aggregates,
// the lifetime high-water mark of the queue, and the pending count of every
// session that currently has queued runs — how close a workload runs to
// the worker pool and the two queue caps.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Workers:         e.workers,
		Queued:          e.queued,
		QueuedHighWater: e.queuedHigh,
		Running:         e.running,
		Retained:        len(e.done),
	}
	for id, q := range e.queues {
		if len(q.pending) == 0 {
			continue
		}
		if st.SessionPending == nil {
			st.SessionPending = map[string]int{}
		}
		st.SessionPending[id] = len(q.pending)
	}
	return st
}

// Close cancels every queued and running run, stops the workers, and waits
// for them to drain. Submit fails with ErrEngineClosed afterwards; Get and
// List keep serving retained runs.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	for _, t := range e.tasks {
		if !t.run.State.Terminal() {
			e.cancelLocked(t)
		}
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

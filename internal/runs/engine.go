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

// task is the engine's mutable bookkeeping for one run; all fields are
// guarded by the engine mutex except ctx/cancel, which are immutable
// after creation, and fns, which only the owning worker indexes. span is
// the run's trace span (nil when the submitter's context carried none);
// it parents the queue-wait and per-stage spans and ends with the run.
type task struct {
	run    Run
	seq    uint64
	fns    []Func
	ctx    context.Context
	cancel context.CancelFunc
	span   *trace.Span
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
	workers    int
	queueCap   int
	sessionCap int
	retention  int
	notify     func(Run)
	reg        *metrics.Registry

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

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the worker-pool size (default 4).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.workers = n
		}
	}
}

// WithQueueDepth caps the number of queued (not yet running) runs across
// all sessions; Submit fails with ErrQueueFull beyond it (default 256,
// 0 = unlimited).
func WithQueueDepth(n int) Option {
	return func(e *Engine) { e.queueCap = n }
}

// WithSessionQueue caps the number of queued (not yet running) runs any
// single session may hold; Submit fails with ErrQueueFull beyond it
// (default 0 = unlimited). This is the fairness guard that stops one
// chatty session from monopolising the bounded global queue.
func WithSessionQueue(n int) Option {
	return func(e *Engine) { e.sessionCap = n }
}

// WithNotify installs a hook invoked on every run state transition
// (queued, running, per-stage progress, terminal) with the run snapshot.
// Transitions of one run arrive in order. The hook runs under the engine
// lock and must be fast and MUST NOT call back into the engine; publishing
// to session subscribers (which never blocks) is the intended use.
func WithNotify(fn func(Run)) Option {
	return func(e *Engine) { e.notify = fn }
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
		workers:   4,
		queueCap:  256,
		retention: 512,
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

// Submit enqueues one stage invocation against a session and returns the
// queued Run snapshot. Runs of one session execute in submission order. The
// context is used for trace propagation only — when it carries a span (the
// HTTP root), the run records a child span covering queue wait and every
// stage — it does NOT bound the run's lifetime: the run outlives the
// submitting request by design and is cancelled via Cancel/CancelSession.
func (e *Engine) Submit(ctx context.Context, sessionID, stage string, fn Func) (Run, error) {
	return e.submit(ctx, sessionID, []string{stage}, []Func{fn}, false)
}

// SubmitPlan submits a declarative Plan as one cancellable run: the stages
// execute back to back on a single worker under one context, a failing stage
// stops the remaining ones, and every transition (running, stage k/n,
// terminal) is published through the notify hook. Every stage is resolved
// (session.Resolve) and its payload decoded before anything is enqueued, so
// a malformed plan is rejected whole (ErrBadPlan for an empty one,
// session.ErrUnknownStage/ErrBadPayload otherwise) — no partial execution.
// ctx carries the caller's trace (see Submit).
func (e *Engine) SubmitPlan(ctx context.Context, sess *session.Session, plan session.Plan) (Run, error) {
	if len(plan.Stages) == 0 {
		return Run{}, fmt.Errorf("%w: empty plan", ErrBadPlan)
	}
	stages := make([]string, len(plan.Stages))
	fns := make([]Func, len(plan.Stages))
	for i, req := range plan.Stages {
		st, payload, err := session.Resolve(req)
		if err != nil {
			return Run{}, fmt.Errorf("plan stage %d: %w", i, err)
		}
		stages[i] = st.Name
		fns[i] = func(ctx context.Context) (session.Event, error) {
			return st.Apply(ctx, sess, payload)
		}
	}
	return e.submitPlan(ctx, sess.ID(), stages, fns)
}

// submitPlan enqueues stages[i] as fns[i], in order, as one plan run.
func (e *Engine) submitPlan(ctx context.Context, sessionID string, stages []string, fns []Func) (Run, error) {
	if len(stages) == 0 || len(stages) != len(fns) {
		return Run{}, fmt.Errorf("%w: %d stages, %d functions", ErrBadPlan, len(stages), len(fns))
	}
	return e.submit(ctx, sessionID, stages, fns, true)
}

func (e *Engine) submit(ctx context.Context, sessionID string, stages []string, fns []Func, isPlan bool) (Run, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Run{}, ErrEngineClosed
	}
	if e.queueCap > 0 && e.queued >= e.queueCap {
		if e.reg != nil {
			e.reg.Counter(metrics.Name("runs_queue_rejections_total", "limit", "global")).Inc()
		}
		return Run{}, fmt.Errorf("%w (max %d queued)", ErrQueueFull, e.queueCap)
	}
	if e.sessionCap > 0 {
		if q := e.queues[sessionID]; q != nil && len(q.pending) >= e.sessionCap {
			if e.reg != nil {
				e.reg.Counter(metrics.Name("runs_queue_rejections_total", "limit", "session")).Inc()
			}
			return Run{}, fmt.Errorf("%w (session %s: max %d pending)", ErrQueueFull, sessionID, e.sessionCap)
		}
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
		fns:    fns,
		ctx:    runCtx,
		cancel: cancel,
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
	return t.run, nil
}

// notifyLocked publishes a run snapshot to the transition hook. Callers
// hold e.mu, which is what serialises transitions into submission order.
func (e *Engine) notifyLocked(r Run) {
	if e.notify != nil {
		e.notify(r)
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
			e.reg.Histogram("runs_queue_wait_seconds", nil).Observe(now.Sub(t.run.CreatedAt).Seconds())
		}
		// Retroactive queue-wait span: the wait began at submission, and
		// ends right now as the worker picks the run up.
		t.span.ChildAt("queue-wait", t.run.CreatedAt).End()
		e.gaugesLocked()
		e.notifyLocked(t.run)
		e.mu.Unlock()

		ev, err := e.runTask(t)

		e.mu.Lock()
		e.running--
		e.finishLocked(t, ev, err)
		e.releaseLocked(q)
		e.gaugesLocked()
		e.mu.Unlock()
	}
}

// runTask executes a run's stages back to back, returning the last stage
// event and the first error. Between stages it checks the run context (so
// a mid-plan cancel stops the remaining stages), advances the run's stage
// cursor, and publishes the stage k/n progress transition.
//
// The stages run under a DeferCommits scope: each stage's journal
// durability wait is collected instead of blocking the next stage, and the
// deferred flush — before this function returns, so before the run turns
// terminal — makes all of the plan's records durable with one fsync. The
// acknowledgement contract is intact: a run observed terminal has every
// stage record on disk.
func (e *Engine) runTask(t *task) (session.Event, error) {
	ctx, flush := session.DeferCommits(t.ctx)
	defer flush()
	var last session.Event
	for i := range t.fns {
		if i > 0 {
			select {
			case <-t.ctx.Done():
				return last, context.Canceled
			default:
			}
			e.mu.Lock()
			t.run.StageIndex = i
			t.run.Stage = t.run.Plan[i]
			e.notifyLocked(t.run)
			e.mu.Unlock()
		}
		t0 := time.Now()
		ev, err := runStage(t, i, ctx)
		if e.reg != nil {
			e.mu.Lock()
			stage := t.run.Stage
			e.mu.Unlock()
			e.reg.Histogram(metrics.Name("runs_stage_seconds", "stage", stage), nil).ObserveSince(t0)
		}
		if err != nil {
			return last, err
		}
		last = ev
		if len(t.run.Plan) > 0 {
			e.mu.Lock()
			// Copy-on-append: Run snapshots escape the lock, so the slice
			// they hold must never be appended to in place.
			t.run.Events = append(append([]session.Event(nil), t.run.Events...), ev)
			e.mu.Unlock()
		}
	}
	return last, nil
}

// runStage executes one stage function of a run, containing panics: the
// sync path gets per-connection panic recovery from net/http, so the async
// path must not let a panicking stage unwind a worker goroutine and kill
// the whole process — it becomes a failed run instead.
func runStage(t *task, i int, ctx context.Context) (ev session.Event, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runs: stage panicked: %v", r)
		}
	}()
	return t.fns[i](ctx)
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

// finishLocked moves a task to its terminal state and into the retention
// ring, evicting the oldest finished runs beyond the cap. Callers hold e.mu.
func (e *Engine) finishLocked(t *task, ev session.Event, err error) {
	now := time.Now()
	t.run.FinishedAt = &now
	switch {
	case err == nil:
		t.run.State = StateSucceeded
		t.run.Event = &ev
	case errors.Is(err, context.Canceled), errors.Is(err, session.ErrClosed):
		// ErrClosed means the session was torn down while the run was in
		// hand (close cancels runs; the closed-session check can win the
		// race) — the client asked for the teardown, so report cancelled.
		t.run.State = StateCancelled
		t.run.Error = "cancelled"
	default:
		t.run.State = StateFailed
		t.run.Error = err.Error()
	}
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
	t.fns, t.ctx, t.cancel, t.span = nil, nil, nil, nil
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
			e.reg.Histogram("runs_duration_seconds", nil).Observe(now.Sub(*t.run.StartedAt).Seconds())
		}
	}
	e.notifyLocked(t.run)
	e.idle.Broadcast()
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
// has reached a terminal state, in submission order — the set a durability
// journal records after a run completes.
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
// session queue and finalised as cancelled immediately; a running run has
// its context cancelled and reaches StateCancelled when the stage observes
// it (CancelRequested is set in the meantime). Cancelling a terminal run is
// a no-op. The returned snapshot reflects the state after the request.
func (e *Engine) Cancel(id string) (Run, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tasks[id]
	if !ok {
		return Run{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	e.cancelLocked(t)
	return t.run, nil
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
		e.finishLocked(t, session.Event{}, context.Canceled)
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
// session that currently has queued runs — the numbers that size
// -run-workers/-run-queue/-run-session-queue for a given workload.
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

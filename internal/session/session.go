// Package session makes the pay-as-you-go interaction loop a first-class,
// concurrently-served object. A Session wraps one core.Wrangler, serialises
// its runs, records a typed event per wrangling stage, and — when built over
// the demonstration scenario — scores every stage against ground truth. The
// service keeps many of them live at once (internal/store holds the table),
// which is what turns the single-user demonstration of the paper into a
// multi-tenant service surface.
package session

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/mcda"
	"vada/internal/metrics"
	"vada/internal/relation"
	"vada/internal/trace"
	"vada/internal/transducer"
)

// Sentinel errors of the session layer.
var (
	// ErrNotFound reports an unknown or already-closed session ID.
	ErrNotFound = errors.New("session: not found")

	// ErrClosed reports an operation on a closed session.
	ErrClosed = errors.New("session: closed")

	// ErrLimit reports that the service's session cap is reached.
	ErrLimit = errors.New("session: session limit reached")

	// ErrExists reports an import under an ID a live session already holds.
	ErrExists = errors.New("session: session already exists")
)

// Stage names of the pay-as-you-go lifecycle (§3 of the paper).
const (
	StageBootstrap   = "bootstrap"
	StageDataContext = "data-context"
	StageFeedback    = "feedback"
	StageUserContext = "user-context"
)

// Event types carried on the subscriber channel.
const (
	// EventStage marks a completed-stage record; it is numbered and kept
	// in the session history.
	EventStage = "stage"
	// EventTransition marks a run state transition (queued → running →
	// stage k/n → terminal); transitions are live-only progress signals,
	// never retained in history.
	EventTransition = "transition"
)

// RunTransition is the run-progress attachment of a transition event: which
// run changed state, where in its plan it is, and how it ended.
type RunTransition struct {
	// RunID identifies the run on the engine.
	RunID string `json:"run_id"`
	// State is the run's lifecycle state after the transition.
	State string `json:"state"`
	// Stage is the stage currently (or last) executing.
	Stage string `json:"stage,omitempty"`
	// StageIndex is the 0-based position of Stage in the run's plan.
	StageIndex int `json:"stage_index"`
	// StageCount is the total number of stages in the run's plan (1 for
	// single-stage runs).
	StageCount int `json:"stage_count"`
	// Error is the failure or cancellation message of a terminal run.
	Error string `json:"error,omitempty"`
}

// Event is one record on a session's event stream: a completed wrangling
// stage (the typed run record the service exposes instead of ad-hoc
// response maps) or, for live subscribers only, a run state transition.
type Event struct {
	// Seq numbers stage events within the session, from 1; transition
	// events carry no sequence number.
	Seq int `json:"seq,omitempty"`
	// Type is EventStage (the default) or EventTransition.
	Type string `json:"type,omitempty"`
	// Stage is the pay-as-you-go stage name.
	Stage string `json:"stage"`
	// Steps is the number of orchestration steps the stage triggered.
	Steps int `json:"steps"`
	// Duration is the wall-clock cost of the stage.
	Duration time.Duration `json:"duration_ns"`
	// At is when the stage finished.
	At time.Time `json:"at"`
	// Score is the oracle's assessment of the result after the stage; nil
	// for sessions without ground truth.
	Score *datagen.Score `json:"score,omitempty"`
	// Run carries the transition details of an EventTransition event.
	Run *RunTransition `json:"run,omitempty"`
}

// Session is one pay-as-you-go wrangling conversation: a Wrangler plus the
// context accumulated so far. All stage methods serialise on the session's
// own mutex, so every session wrangles independently and in parallel with
// every other.
type Session struct {
	id        string
	name      string
	createdAt time.Time
	w         *core.Wrangler
	sc        *datagen.Scenario
	seed      int64

	// runMu serialises stage execution; mu guards the cheap metadata so
	// listings and state reads never block behind a running stage.
	runMu      sync.Mutex
	mu         sync.Mutex
	events     []Event
	lastActive time.Time
	closed     bool
	subs       map[int]chan Event
	nextSub    int

	// resultCache memoises the clean result projection at resultVersion so
	// paginated reads stop re-projecting an unchanged relation.
	resultCache   *relation.Relation
	resultVersion uint64

	// reg, when set, counts the SSE fan-out: live subscribers
	// (sse_subscribers) and events lost to slow consumers
	// (sse_dropped_events_total) — the loss that was previously silent.
	reg *metrics.Registry
}

// Option configures a Session at creation.
type Option func(*Session)

// WithName attaches a human-readable label.
func WithName(name string) Option {
	return func(s *Session) { s.name = name }
}

// WithScenario attaches the demonstration scenario as the session's ground
// truth: stage events carry oracle scores, the data-context step defaults to
// the scenario's address reference, and the feedback step can synthesise
// oracle annotations with the given seed.
func WithScenario(sc *datagen.Scenario, seed int64) Option {
	return func(s *Session) {
		s.sc = sc
		s.seed = seed
	}
}

// WithMetrics instruments the session's event fan-out: the subscriber
// gauge (sse_subscribers) tracks Subscribe/cancel/Close, and every event a
// full slow-consumer buffer forces the session to drop is counted
// (sse_dropped_events_total{kind="stage"|"transition"}) instead of
// vanishing silently. Services pass one shared registry to every session.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Session) { s.reg = reg }
}

// WithRestored stamps a session with its pre-restart identity: the creation
// and last-activity times and the completed stage-event history of the
// snapshot it was restored from. Stage numbering continues where the
// restored history left off. Zero times keep the defaults; this option is
// the persistence layer's, not for ordinary construction.
func WithRestored(createdAt, lastActive time.Time, events []Event) Option {
	return func(s *Session) {
		if !createdAt.IsZero() {
			s.createdAt = createdAt
		}
		if !lastActive.IsZero() {
			s.lastActive = lastActive
		}
		s.events = append([]Event(nil), events...)
	}
}

// New wraps a Wrangler as a session under the given ID, which a service
// keeps unique among its live sessions.
func New(id string, w *core.Wrangler, opts ...Option) *Session {
	s := &Session{id: id, w: w, createdAt: time.Now()}
	s.lastActive = s.createdAt
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Name returns the optional human-readable label.
func (s *Session) Name() string { return s.name }

// CreatedAt returns the creation time.
func (s *Session) CreatedAt() time.Time { return s.createdAt }

// LastActive returns the time of the last stage, result or trace access.
func (s *Session) LastActive() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastActive
}

// Wrangler exposes the underlying system for advanced use (custom
// transducers, KB inspection). Callers must not invoke Run concurrently
// with session stage methods; prefer Step.
func (s *Session) Wrangler() *core.Wrangler { return s.w }

// Scenario returns the attached demonstration scenario, or nil.
func (s *Session) Scenario() *datagen.Scenario { return s.sc }

// Seed returns the oracle feedback seed attached with WithScenario.
func (s *Session) Seed() int64 { return s.seed }

// Events returns the typed stage history.
func (s *Session) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// EventsSince returns the stage history after its first n events.
func (s *Session) EventsSince(n int) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events[min(n, len(s.events)):]...)
}

// Close marks the session closed; subsequent stage methods fail with
// ErrClosed, and every event subscription channel is closed so streaming
// consumers terminate. Closing is idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for id, ch := range s.subs {
			delete(s.subs, id)
			close(ch)
			s.subGauge(-1)
		}
	}
	s.mu.Unlock()
}

// subGauge moves the shared subscriber gauge by delta; no-op without a
// metrics registry.
func (s *Session) subGauge(delta int64) {
	if s.reg != nil {
		s.reg.Gauge("sse_subscribers").Add(delta)
	}
}

// countSteps publishes what one orchestration run did, per transducer:
// wrangle_steps_total{transducer,changed} for the steps executed (changed
// says whether the step moved the knowledge base) and
// wrangle_steps_skipped_total{transducer} for ready transducers dropped
// unrun because their inputs had not moved. The share of changed="false"
// among executed steps is the waste read-set orchestration is there to cut.
func (s *Session) countSteps(steps []transducer.Step) {
	if s.reg == nil {
		return
	}
	for _, st := range steps {
		changed := strconv.FormatBool(st.VersionAfter != st.VersionBefore)
		s.reg.Counter(metrics.Name("wrangle_steps_total", "transducer", st.Transducer, "changed", changed)).Inc()
		for _, name := range st.Skipped {
			s.reg.Counter(metrics.Name("wrangle_steps_skipped_total", "transducer", name)).Inc()
		}
	}
}

// countDrop records one event lost to a slow consumer's full buffer.
func (s *Session) countDrop(kind string) {
	if s.reg != nil {
		s.reg.Counter(metrics.Name("sse_dropped_events_total", "kind", kind)).Inc()
	}
}

// Quiesce blocks until no stage is executing on the session. A closed
// session stops admitting new stages, but one already in flight keeps the
// run mutex until it completes (or observes its cancelled context) — and
// its final event append and KB writes happen under that mutex. Callers
// that need the session's final state (a teardown about to write it) wait
// here first.
func (s *Session) Quiesce() { s.BetweenStages(func() {}) }

// BetweenStages runs fn while no stage executes on the session: it waits for
// a running stage to finish and keeps the next one from starting until fn
// returns, so fn observes the session as a whole number of stages left it.
// fn must not run a stage (Step would self-deadlock).
func (s *Session) BetweenStages(fn func()) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	fn()
}

// subscriberBuffer is the number of events a subscriber's channel holds.
const subscriberBuffer = 64

// Subscribe registers a live event consumer. It returns the event history
// so far and a channel carrying every subsequent stage event — taken under
// one lock, so no event is lost or duplicated between the two. The channel
// is closed when the session closes; cancel unsubscribes (idempotent, safe
// after close). Slow consumers whose buffer (subscriberBuffer) is full miss
// events rather than block wrangling.
func (s *Session) Subscribe() (history []Event, events <-chan Event, cancel func()) {
	ch := make(chan Event, subscriberBuffer)
	s.mu.Lock()
	defer s.mu.Unlock()
	history = append([]Event(nil), s.events...)
	if s.closed {
		close(ch)
		return history, ch, func() {}
	}
	if s.subs == nil {
		s.subs = map[int]chan Event{}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = ch
	s.subGauge(1)
	cancel = func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if c, ok := s.subs[id]; ok {
			delete(s.subs, id)
			close(c)
			s.subGauge(-1)
		}
	}
	return history, ch, cancel
}

// Step runs one pay-as-you-go stage: apply the context-adding action, drive
// the orchestrator to quiescence, and record (and return) a typed event.
// Steps of one session are serialised; independent sessions proceed in
// parallel. When ctx carries a trace span (the run span on the engine path)
// the stage records a `stage:<name>` child covering action, orchestration
// and scoring.
func (s *Session) Step(ctx context.Context, stage string, action func(w *core.Wrangler) error) (_ Event, retErr error) {
	span := trace.ChildFromContext(ctx, "stage:"+stage, "stage", stage, "session", s.id)
	if span != nil {
		ctx = trace.NewContext(ctx, span)
		defer func() { span.EndErr(retErr) }()
	}
	s.runMu.Lock()
	defer s.runMu.Unlock()
	if err := s.touch(); err != nil {
		return Event{}, err
	}
	if action != nil {
		if err := action(s.w); err != nil {
			return Event{}, err
		}
	}
	start := time.Now()
	steps, err := s.w.Run(ctx)
	s.countSteps(steps)
	if err != nil {
		return Event{}, err
	}
	ev := Event{
		Type:     EventStage,
		Stage:    stage,
		Steps:    len(steps),
		Duration: time.Since(start),
		At:       time.Now(),
	}
	if s.sc != nil {
		// A wrangler with nothing to fuse has no result to score. The oracle
		// reads columns by name and never the provenance column, so the
		// result scores as its clean projection does, without the copy.
		if res := s.w.Result(); res != nil {
			score := s.sc.Oracle.ScoreResult(res)
			ev.Score = &score
		}
	}
	s.mu.Lock()
	ev.Seq = len(s.events) + 1
	s.events = append(s.events, ev)
	s.lastActive = ev.At
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop rather than stall wrangling
			s.countDrop("stage")
		}
	}
	s.mu.Unlock()
	return ev, nil
}

// Replay re-applies a recorded run to a session nobody is served yet: each
// request goes through Resolve and Stage.Apply, the path a live stage takes,
// and then the events the run recorded stand in place of the ones the replay
// produced — when a stage ran, how long it took and how many steps it needed
// are history, not something to measure again. The session's metrics do not
// count the replay. A request that fails to resolve or apply fails it.
func (s *Session) Replay(ctx context.Context, reqs []StageRequest, events []Event) error {
	reg := s.reg
	s.reg = nil
	defer func() { s.reg = reg }()
	s.mu.Lock()
	n, lastActive := len(s.events), s.lastActive
	s.mu.Unlock()
	for i, req := range reqs {
		st, payload, err := Resolve(req)
		if err == nil {
			_, err = st.Apply(ctx, s, payload)
		}
		if err != nil {
			return fmt.Errorf("replaying request %d (%s): %w", i+1, req.Stage, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events[:n], events...)
	s.lastActive = lastActive
	if k := len(events); k > 0 && events[k-1].At.After(lastActive) {
		s.lastActive = events[k-1].At
	}
	return nil
}

// touch refreshes lastActive, failing on a closed session.
func (s *Session) touch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.lastActive = time.Now()
	return nil
}

// PublishTransition pushes a run state transition to every live subscriber.
// Transitions are progress signals, not history: they carry no sequence
// number, are never retained, and are dropped (never blocking) for slow
// consumers and closed sessions.
func (s *Session) PublishTransition(tr RunTransition) {
	ev := Event{Type: EventTransition, Stage: tr.Stage, At: time.Now(), Run: &tr}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop rather than stall the engine
			s.countDrop("transition")
		}
	}
}

// Bootstrap runs stage 1: fully automatic wrangling over the registered
// sources.
func (s *Session) Bootstrap(ctx context.Context) (Event, error) {
	return bootstrapStage.Apply(ctx, s, nil)
}

// AddDataContext runs stage 2 with the given reference relation; nil
// defaults to the scenario's address reference (ErrNoDataContext without a
// scenario).
func (s *Session) AddDataContext(ctx context.Context, rel *relation.Relation) (Event, error) {
	return dataContextStage.Apply(ctx, s, rel)
}

// AddFeedback runs stage 3 with the given annotations; an empty slice asks
// the scenario oracle for `budget` annotations (a no-op action without a
// scenario).
func (s *Session) AddFeedback(ctx context.Context, items []feedback.Item, budget int) (Event, error) {
	return feedbackStage.Apply(ctx, s, &FeedbackPayload{Items: items, Budget: &budget})
}

// SetUserContext runs stage 4 with the given priority model.
func (s *Session) SetUserContext(ctx context.Context, m *mcda.Model) (Event, error) {
	return userContextStage.Apply(ctx, s, m)
}

// Result returns the clean wrangling result (no provenance column), or
// ErrNoResult before the first bootstrap. The projection is cached keyed on
// the knowledge-base version, so repeated reads of an unchanged session
// (paginated result pages in particular) skip re-projecting the relation.
// Each call gets its own Relation and tuple slice — truncating or sorting
// the result is safe — but the tuples themselves are shared with other
// callers and must not be written in place.
func (s *Session) Result() (*relation.Relation, error) {
	if err := s.touch(); err != nil {
		return nil, err
	}
	ver := s.w.KB.Version()
	s.mu.Lock()
	if s.resultCache != nil && s.resultVersion == ver {
		res := s.resultCache
		s.mu.Unlock()
		return resultView(res), nil
	}
	s.mu.Unlock()
	res := s.w.ResultClean()
	if res == nil {
		return nil, core.ErrNoResult
	}
	// Re-read the version: a stage may have advanced the KB while we were
	// projecting, in which case the projection is not cacheable.
	if after := s.w.KB.Version(); after == ver {
		s.mu.Lock()
		s.resultCache, s.resultVersion = res, ver
		s.mu.Unlock()
	}
	return resultView(res), nil
}

// resultView makes a caller-private view of a cached result: a fresh
// Relation and Tuples slice over the shared tuples, so row-level mutations
// by one caller (truncation, in-place sorts) cannot corrupt the cache.
func resultView(res *relation.Relation) *relation.Relation { return res.Shallow() }

// Trace returns the most recent orchestration steps (see Wrangler.Trace).
func (s *Session) Trace() []transducer.Step {
	if err := s.touch(); err != nil {
		return nil
	}
	return s.w.Trace()
}

// State is the JSON-ready summary of a session.
type State struct {
	ID         string    `json:"id"`
	Name       string    `json:"name,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	LastActive time.Time `json:"last_active"`
	Closed     bool      `json:"closed"`
	Events     []Event   `json:"events"`
	Selected   []string  `json:"selected_mappings,omitempty"`
	ResultRows int       `json:"result_rows"`
}

// State summarises the session for listings and the service API.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := State{
		ID:         s.id,
		Name:       s.name,
		CreatedAt:  s.createdAt,
		LastActive: s.lastActive,
		Closed:     s.closed,
		Events:     append([]Event(nil), s.events...),
	}
	if !s.closed {
		st.Selected = s.w.SelectedMappings()
		st.ResultRows = s.w.ResultRows()
	}
	return st
}

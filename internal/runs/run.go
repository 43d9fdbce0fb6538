// Package runs is the execution layer between the session manager and the
// service surface: a worker-pool job engine in which every wrangling stage
// invocation becomes a first-class Run resource that can be created, listed,
// polled, cancelled and waited on.
//
// The engine guarantees per-session FIFO ordering — runs submitted against
// one session execute one at a time, in submission order, so concurrent
// clients of a session can never interleave its stages — while runs of
// independent sessions proceed in parallel across the worker pool. The
// total number of queued runs is bounded (ErrQueueFull beyond the cap), and
// finished runs are kept in a fixed-size retention ring so clients can poll
// an outcome for a while after completion without the engine growing without
// bound. A run commits once: its terminal snapshot and the requests its
// stages applied go to the observer, which returns once they are durable,
// before the run is published as terminal.
package runs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"time"

	"vada/internal/session"
)

// Sentinel errors of the run engine.
var (
	// ErrNotFound reports an unknown (or already-evicted) run ID.
	ErrNotFound = errors.New("runs: run not found")

	// ErrQueueFull reports that the engine's queued-run cap — global or
	// per-session — is reached.
	ErrQueueFull = errors.New("runs: queue full")

	// ErrEngineClosed reports a submission to a closed engine.
	ErrEngineClosed = errors.New("runs: engine closed")

	// ErrBadPlan reports an empty or malformed plan submission.
	ErrBadPlan = errors.New("runs: bad plan")

	// ErrCancelled is what waiting on a cancelled run returns.
	ErrCancelled = errors.New("runs: run cancelled")
)

// State is the lifecycle state of a Run.
type State string

// The run lifecycle: queued → running → succeeded | failed | cancelled.
// A queued run may also move straight to cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Run is the JSON-ready snapshot of one stage invocation — the resource the
// service returns from async stage requests and serves under
// /sessions/{id}/runs/{rid}.
type Run struct {
	// ID identifies the run; unique per engine.
	ID string `json:"id"`
	// SessionID is the session the run executes against.
	SessionID string `json:"session_id"`
	// Stage is the stage the run is currently (or was last) executing.
	Stage string `json:"stage"`
	// Plan lists every stage of a multi-stage plan run in execution
	// order; empty for single-stage runs.
	Plan []string `json:"plan,omitempty"`
	// StageIndex is the 0-based position of Stage within Plan.
	StageIndex int `json:"stage_index,omitempty"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// CancelRequested reports that Cancel was called while the run was
	// already executing; the run reaches StateCancelled when the stage
	// observes its context.
	CancelRequested bool `json:"cancel_requested,omitempty"`
	// CreatedAt is the submission time.
	CreatedAt time.Time `json:"created_at"`
	// StartedAt is when a worker picked the run up; nil while queued.
	StartedAt *time.Time `json:"started_at,omitempty"`
	// FinishedAt is when the run reached a terminal state.
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Event is the stage event of a succeeded run (the last stage's event
	// for plan runs).
	Event *session.Event `json:"event,omitempty"`
	// Events are the completed stage events of a plan run, in execution
	// order; a mid-plan failure keeps the events of the stages that did
	// complete.
	Events []session.Event `json:"events,omitempty"`
	// Error is the failure (or cancellation) message of a terminal run.
	Error string `json:"error,omitempty"`
}

// StageCount returns the number of stages the run executes.
func (r Run) StageCount() int {
	if len(r.Plan) > 0 {
		return len(r.Plan)
	}
	return 1
}

// Transition projects the run snapshot into the session-event form the
// engine streams to subscribers on every state change.
func (r Run) Transition() session.RunTransition {
	return session.RunTransition{
		RunID:      r.ID,
		State:      string(r.State),
		Stage:      r.Stage,
		StageIndex: r.StageIndex,
		StageCount: r.StageCount(),
		Error:      r.Error,
	}
}

// Stats summarises the engine for health endpoints.
type Stats struct {
	// Workers is the size of the worker pool.
	Workers int `json:"workers"`
	// Queued is the number of runs waiting for a worker.
	Queued int `json:"queued"`
	// QueuedHighWater is the largest Queued ever reached over the engine's
	// lifetime — how close the workload has come to the global queue cap.
	QueuedHighWater int `json:"queued_high_water"`
	// Running is the number of runs currently executing.
	Running int `json:"running"`
	// Retained is the number of finished runs still pollable.
	Retained int `json:"retained"`
	// SessionPending maps each session with queued runs to its pending
	// count — how close individual sessions run to the per-session cap.
	// Sessions with nothing queued are omitted.
	SessionPending map[string]int `json:"session_pending,omitempty"`
}

// randomSuffix makes run IDs unguessable across restarts.
func randomSuffix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

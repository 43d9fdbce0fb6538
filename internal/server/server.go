// Package server is the multi-tenant wrangling service: any number of
// concurrent pay-as-you-go sessions (each the four-panel demonstration of
// Figure 3) behind a versioned JSON API, plus the single-page UI and the
// browsable orchestration trace. cmd/vada-server is the thin flag-parsing
// binary over this package; the frozen benchmark (benchmark/) drives that
// binary as a subprocess, kill -9 rounds included.
//
//	vada-server -addr :8080 -max-sessions 64 -idle-timeout 30m -run-workers 8
//
// Endpoints:
//
//	GET    /                                     the single-page UI
//	GET    /api/v1/healthz                       server health: sessions, run-engine load, persist stats, metrics roll-up
//	GET    /api/v1/metricz                       full metrics snapshot: counters, gauges, latency histograms
//	GET    /api/v1/stages                        stage discovery: every registered stage
//	POST   /api/v1/sessions                      create a session {"name","n","seed"}
//	GET    /api/v1/sessions                      list session states
//	GET    /api/v1/sessions/{id}                 session state
//	DELETE /api/v1/sessions/{id}                 close the session (cancels its runs)
//	POST   /api/v1/sessions/{id}/stages/{name}   invoke any registered stage (body = JSON payload)
//	POST   /api/v1/sessions/{id}/plans           run an ordered stage plan as one run (always async)
//	GET    /api/v1/sessions/{id}/result          result rows (?limit=&offset=, paginated)
//	GET    /api/v1/sessions/{id}/trace           orchestration trace (text; the most recent 1024 steps, numbered from the session's first)
//	GET    /api/v1/sessions/{id}/runs            list the session's runs
//	GET    /api/v1/sessions/{id}/runs/{rid}      poll one run
//	DELETE /api/v1/sessions/{id}/runs/{rid}      cancel a queued or in-flight run
//	GET    /api/v1/sessions/{id}/events          stage events + run transitions over SSE
//	GET    /api/v1/sessions/{id}/export          download the session as a snapshot envelope
//	POST   /api/v1/sessions/import               restore a session from a snapshot envelope
//	POST   /api/v1/sessions/{id}/upload          multipart file upload into the ingest stage (?role=&format=&relation=)
//	GET    /api/v1/sessions/{id}/export/{rel}    stream a relation as canonical CSV/JSONL (?format=csv|jsonl)
//
// The last two are the connector surface over real data: uploads feed CSV
// and JSON-Lines files into the session as source (or data-context)
// relations, the ingest/fetch/export/quality-report stages move data in
// plans, and the relation export route streams any knowledge-base relation
// — or the clean result — back out in canonical, byte-stable order.
//
// The server only routes: internal/store owns the table of live sessions —
// the cap, creation order, the sessions_* metrics — and the one teardown
// every session leaves through, whether DELETE, idle eviction or shutdown
// takes it out, and with -data-dir the directory, its file formats and the
// durable lifecycle of every session in it (create, import, commit, archive,
// recover — its package comment has the file layout and the crash
// contract). What a client can rely on, per response: a 201 from create or
// import means the session's baseline snapshot is fsynced and in place, and
// no client could see the session before it was; a run — a synchronous
// stage is one — commits once: one record of the stage requests it applied,
// fsynced before the stage is answered or the run turns terminal, which
// recovery replays. A journal is compacted into a fresh snapshot between
// stages only: after the run whose record took it past the store's replay
// budget, after a run that failed or was cancelled once started, and on
// evict and graceful shutdown once the session has quiesced.
//
// Every persisted session is restored at boot — event history, result and
// terminal run resources included — so a server killed outright (kill -9)
// loses nothing it acknowledged, and a restarted server answers
// GET .../result and GET .../runs/{rid} for pre-restart sessions
// identically. DELETE /api/v1/sessions/{id} archives the session's final
// state under <data-dir>/closed/ and removes its live files, so explicitly
// closed sessions do not come back on boot; POSTing the archive,
// <data-dir>/closed/<id>.vsnap, to /api/v1/sessions/import makes it live
// again. Idle-evicted sessions stay restorable. GET /api/v1/healthz reports
// persist stats: journaled sessions, journal records and bytes since
// compaction, and the last snapshot time.
//
// Stages are table-driven: every stage of the session package's fixed stage
// table is invocable through the generic stages/{name} route, listable via
// stage discovery, and usable in plans — no per-stage handler or route
// exists.
//
// Every stage is a run on the run engine. A stage POST waits for its run and
// answers the stage event or the stage's error — a cancelled run is a 409,
// and a client that goes away cancels the run it waits on; with ?async=1 it
// answers 202 Accepted at once, with a Location header naming the run
// resource to poll. Plans are always asynchronous: the run resource carries
// per-stage progress (plan, stage_index, events) and the session's SSE
// stream carries every state transition (queued → running → stage k/n →
// terminal) as `transition` events alongside the `stage` events. Runs of one
// session execute one at a time in submission order, however they were
// posted; runs of independent sessions spread across the worker pool
// (-run-workers), and the run engine's per-session pending cap answers 429
// with Retry-After before one session can monopolise the global queue.
//
// Sessions are independent: each wraps its own Wrangler and scenario, holds
// its own lock, and wrangles fully in parallel with every other session.
//
// Config holds what a deployment varies — where the server runs, how much
// it serves, how it logs — and its zero value is the server vada-server runs
// with every flag at its default. Everything else is one constant in the
// package it bounds: the scenario defaults and the SSE timings here, the
// run queue caps in runs, the compaction thresholds in store, the trace
// bounds and slow-span threshold in trace, the runtime sampling interval
// in metrics.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vada/internal/advise"
	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/metrics"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/store"
	"vada/internal/trace"
	"vada/internal/transducer"
)

// maxResultPageSize bounds one result page; larger limits are clamped.
const maxResultPageSize = 1000

// maxPayloadBytes bounds one stage payload or plan body.
const maxPayloadBytes = 8 << 20

// maxSnapshotBytes bounds one imported session snapshot.
const maxSnapshotBytes = 64 << 20

// A session created without a size or seed gets defaultN properties and
// defaultSeed; neither a created nor an imported scenario may exceed maxN
// properties or postcodes.
const (
	defaultN    = 300
	defaultSeed = 1
	maxN        = 2000
)

// SSE hardening: a keep-alive comment after this much idle time, so
// intermediaries hold the stream open, and a deadline on every write, which
// reaps dead clients behind proxies that never RST.
const (
	sseKeepAliveEvery = 15 * time.Second
	sseWriteTimeout   = 10 * time.Second
)

// Server holds the store, the run engine and the tracer. Build one with
// New; serve Handler(); stop with Close.
type Server struct {
	runs    *runs.Engine
	metrics *metrics.Registry
	started time.Time

	// tracer records per-request span trees. logger is the structured
	// request/operational logger; pprof gates the /debug/pprof/ routes;
	// stopSampler stops the runtime-gauge sampler.
	tracer      *trace.Tracer
	logger      *slog.Logger
	pprof       bool
	stopSampler func()

	// sseKeepAlive is sseKeepAliveEvery; tests shorten it.
	sseKeepAlive time.Duration

	// store owns the table of live sessions, their lifecycle and the data
	// directory (ephemeral without one); the server only routes to it.
	store     *store.Store
	closeOnce sync.Once
}

// Config is what a deployment varies, in struct form, so the binary and
// tests build the full server wiring — durability included — the same way.
// A zero field means the package default vada-server's flag carries too.
type Config struct {
	// MaxSessions caps live sessions (0 = store.DefaultMaxSessions).
	MaxSessions int
	// RunWorkers sizes the run engine's worker pool, which every stage runs
	// on (0 = runs.DefaultWorkers).
	RunWorkers int
	// DataDir enables durability ("" = ephemeral): every session journals
	// to it.
	DataDir string
	// Pprof registers net/http/pprof under /debug/pprof/.
	Pprof bool
	// Logger is the structured logger for request lines and operational
	// events (nil = slog.Default()).
	Logger *slog.Logger
}

// New wires tracer, run engine and the store over the data directory, then
// recovers every session the directory holds.
func New(cfg Config) (*Server, error) {
	s := &Server{
		metrics:      metrics.NewRegistry(),
		started:      time.Now(),
		sseKeepAlive: sseKeepAliveEvery,
		pprof:        cfg.Pprof,
		logger:       cfg.Logger,
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.tracer = trace.NewTracer(trace.NewStore(), s.logger)
	s.stopSampler = metrics.StartRuntimeSampler(s.metrics)
	s.runs = runs.New(
		runs.WithWorkers(cfg.RunWorkers),
		runs.WithObserver(runs.Observer{
			Transition: s.publishTransition,
			// s.store is opened below, before anything is served.
			Record: func(ctx context.Context, run runs.Run, applied []session.StageRequest) {
				s.store.CommitRun(ctx, run, applied)
			},
		}),
		runs.WithMetrics(s.metrics),
	)
	var err error
	s.store, err = store.Open(cfg.DataDir, cfg.MaxSessions,
		store.Deps{Engine: s.runs, Metrics: s.metrics, Logger: s.logger})
	if err != nil {
		return nil, fmt.Errorf("opening -data-dir: %w", err)
	}
	s.store.Recover()
	return s, nil
}

// Close drains the run engine, then has the store tear down every live
// session, each compacted once it has quiesced — the graceful-shutdown path.
// Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.runs.Close() // cancels live runs and waits for workers to drain
		s.store.Close()
		s.stopSampler()
	})
}

// Handler returns the server's full HTTP surface: the versioned routes
// behind the metrics middleware, so every request — UI, API, SSE — is
// counted and timed per route.
func (s *Server) Handler() http.Handler { return s.instrument(s.routes()) }

// EvictIdle closes every session idle longer than maxIdle, returning the
// evicted IDs — the binary runs this from a ticker.
func (s *Server) EvictIdle(maxIdle time.Duration) []string {
	return s.store.EvictIdle(maxIdle)
}

// routes wires the versioned API. The UI is registered as "GET /{$}" (the
// root path only), so requests for a known path with the wrong verb fall
// through to ServeMux's 405 + Allow handling instead of the catch-all —
// every /api/v1 route answers a correct 405 for unmatched methods.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /api/v1/metricz", s.handleMetricz)
	mux.HandleFunc("GET /api/v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /api/v1/traces/{tid}", s.handleTraceGet)
	mux.HandleFunc("GET /api/v1/stages", s.handleStages)
	mux.HandleFunc("POST /api/v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /api/v1/sessions", s.handleList)
	mux.HandleFunc("GET /api/v1/sessions/{id}", s.handleState)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}", s.handleClose)
	mux.HandleFunc("POST /api/v1/sessions/{id}/stages/{name}", s.handleStage)
	mux.HandleFunc("POST /api/v1/sessions/{id}/plans", s.handlePlan)
	mux.HandleFunc("GET /api/v1/sessions/{id}/suggestions", s.handleSuggestions)
	mux.HandleFunc("GET /api/v1/sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/sessions/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/sessions/{id}/runs", s.handleRunList)
	mux.HandleFunc("GET /api/v1/sessions/{id}/runs/{rid}", s.handleRunGet)
	mux.HandleFunc("DELETE /api/v1/sessions/{id}/runs/{rid}", s.handleRunCancel)
	mux.HandleFunc("GET /api/v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/sessions/{id}/export", s.handleExport)
	mux.HandleFunc("GET /api/v1/sessions/{id}/export/{relation}", s.handleExportRelation)
	mux.HandleFunc("POST /api/v1/sessions/{id}/upload", s.handleUpload)
	mux.HandleFunc("POST /api/v1/sessions/import", s.handleImport)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// publishTransition is the run engine's transition hook: every run state
// change is pushed to the owning session's subscribers so SSE clients see
// queued → running → stage k/n → terminal live. Sessions already gone
// (evicted mid-run) simply drop the signal. The hook runs under the engine
// lock and never blocks.
func (s *Server) publishTransition(run runs.Run) {
	if sess, err := s.store.Get(run.SessionID); err == nil {
		sess.PublishTransition(run.Transition())
	}
}

// createRequest is the POST /api/v1/sessions body; zero values take the
// package defaults. Blank sessions skip scenario generation entirely: an
// empty wrangler with a target schema, fed real data through the connector
// stages instead of datagen.
type createRequest struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
	// Blank creates a scenario-free session: no synthetic sources, no
	// oracle — sources arrive via upload or the ingest/fetch stages.
	Blank bool `json:"blank,omitempty"`
	// Target overrides the blank session's target schema as attribute
	// specs ("name" or "name:int|float|bool|string"); empty keeps the
	// standard property target schema.
	Target []string `json:"target,omitempty"`
}

func (s *Server) handleCreate(rw http.ResponseWriter, r *http.Request) {
	req := createRequest{N: defaultN, Seed: defaultSeed}
	if r.ContentLength != 0 && !decodeBody(rw, r, "session config", &req) {
		return
	}
	if req.N <= 0 {
		req.N = defaultN
	}
	if !req.Blank && req.N > maxN {
		http.Error(rw, fmt.Sprintf("scenario size %d exceeds the server limit %d", req.N, maxN),
			http.StatusBadRequest)
		return
	}
	// Cheap pre-check so a full server rejects before scenario generation;
	// Create remains the authoritative (race-free) gate.
	if s.store.AtCap() {
		writeError(rw, session.ErrLimit)
		return
	}
	var w *core.Wrangler
	opts := []session.Option{session.WithName(req.Name)}
	if req.Blank {
		w = core.NewWrangler()
		target := datagen.TargetSchema()
		if len(req.Target) > 0 {
			t, err := relation.ParseSchema(target.Name, req.Target...)
			if err != nil {
				http.Error(rw, "bad target schema: "+err.Error(), http.StatusBadRequest)
				return
			}
			target = t
		}
		w.SetTargetSchema(target)
	} else {
		cfg := datagen.DefaultConfig()
		cfg.NProperties = req.N
		cfg.Seed = req.Seed
		sc := datagen.Generate(cfg)
		w = core.BuildScenarioWrangler(sc)
		opts = append(opts, session.WithScenario(sc, req.Seed))
	}
	sess, err := s.store.Create(w, opts...)
	if err != nil {
		writeError(rw, err)
		return
	}
	writeJSONStatus(rw, http.StatusCreated, sess.State())
}

func (s *Server) handleList(rw http.ResponseWriter, _ *http.Request) {
	sessions := s.store.List()
	states := make([]session.State, len(sessions))
	for i, sess := range sessions {
		states[i] = sess.State()
	}
	writeJSON(rw, map[string]any{"total": len(states), "sessions": states})
}

func (s *Server) handleState(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	writeJSON(rw, sess.State())
}

func (s *Server) handleClose(rw http.ResponseWriter, r *http.Request) {
	// An explicit DELETE archives the session's durable state instead of
	// leaving it to come back on the next boot; the teardown itself — runs
	// cancelled, session quiesced — is the one idle eviction takes.
	if err := s.store.Archive(r.PathValue("id")); err != nil {
		writeError(rw, err)
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}

// asyncRequested reports whether a stage POST answers 202 at once instead of
// waiting for its run.
func asyncRequested(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleStages serves stage discovery: every stage of the stage table, in
// table order.
func (s *Server) handleStages(rw http.ResponseWriter, _ *http.Request) {
	info := session.StageInfos()
	writeJSON(rw, map[string]any{"total": len(info), "stages": info})
}

// handleStage is the uniform stage route: any stage is invoked as
// POST .../stages/{name} with the stage's JSON payload as the body. The stage
// is submitted as a run — unknown stages and undecodable payloads are a 400,
// with nothing enqueued — and the response waits for it, answering the stage
// event or the stage's error, unless ?async=1 asks for the 202 with the run
// snapshot and its Location to poll.
func (s *Server) handleStage(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	payload, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, maxPayloadBytes))
	if err != nil {
		writeBodyError(rw, err)
		return
	}
	sub, err := s.runs.SubmitStage(r.Context(), sess, session.StageRequest{Stage: r.PathValue("name"), Payload: payload})
	if err != nil {
		writeError(rw, err)
		return
	}
	if asyncRequested(r) {
		s.writeRunAccepted(rw, sess.ID(), sub.Run)
		return
	}
	run, err := sub.Wait(r.Context())
	if err != nil {
		writeError(rw, err)
		return
	}
	writeJSON(rw, run.Event)
}

// writeRunAccepted answers 202 with the run snapshot and its poll URL.
func (s *Server) writeRunAccepted(rw http.ResponseWriter, sessionID string, run runs.Run) {
	rw.Header().Set("Location", fmt.Sprintf("/api/v1/sessions/%s/runs/%s", sessionID, run.ID))
	writeJSONStatus(rw, http.StatusAccepted, run)
}

// handlePlan submits a declarative multi-stage plan as one cancellable run.
// Plans are always asynchronous: the response is 202 with the run resource,
// whose per-stage progress streams over the session's SSE channel as
// transition events. Every stage is resolved and decoded before submission,
// so a malformed plan is rejected whole — no partial execution.
func (s *Server) handlePlan(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	var plan session.Plan
	if !decodeBody(rw, r, "plan", &plan) {
		return
	}
	sub, err := s.runs.SubmitPlan(r.Context(), sess, plan)
	if err != nil {
		writeError(rw, err)
		return
	}
	s.writeRunAccepted(rw, sess.ID(), sub.Run)
}

func (s *Server) handleRunList(rw http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	list := s.runs.List(id)
	if len(list) == 0 {
		// No retained runs: distinguish a live session without runs (empty
		// 200) from an unknown session ID (404). Closed sessions keep their
		// retained runs listable, matching GET .../runs/{rid}.
		if _, err := s.store.Get(id); err != nil {
			writeError(rw, err)
			return
		}
	}
	writeJSON(rw, map[string]any{"total": len(list), "runs": list})
}

// sessionRun resolves a run scoped to its session path, so run IDs cannot
// be probed across sessions.
func (s *Server) sessionRun(r *http.Request) (runs.Run, error) {
	run, err := s.runs.Get(r.PathValue("rid"))
	if err != nil {
		return runs.Run{}, err
	}
	if run.SessionID != r.PathValue("id") {
		return runs.Run{}, fmt.Errorf("%w: %q", runs.ErrNotFound, r.PathValue("rid"))
	}
	return run, nil
}

func (s *Server) handleRunGet(rw http.ResponseWriter, r *http.Request) {
	run, err := s.sessionRun(r)
	if err != nil {
		writeError(rw, err)
		return
	}
	writeJSON(rw, run)
}

func (s *Server) handleRunCancel(rw http.ResponseWriter, r *http.Request) {
	if _, err := s.sessionRun(r); err != nil {
		writeError(rw, err)
		return
	}
	run, err := s.runs.Cancel(r.PathValue("rid"))
	if err != nil {
		writeError(rw, err)
		return
	}
	// 202: cancellation of a running stage completes when the stage next
	// observes its context; poll the resource for the terminal state.
	writeJSONStatus(rw, http.StatusAccepted, run)
}

// sseWriter couples a response writer with its flusher and per-write
// deadline so every SSE write detects dead client connections instead of
// blocking a goroutine forever behind a proxy that never RSTs.
type sseWriter struct {
	rw      http.ResponseWriter
	flusher http.Flusher
	ctl     *http.ResponseController
	logger  *slog.Logger
}

// write sends one pre-rendered SSE frame and flushes it, under the
// per-write deadline. The deadline is cleared again right after the write,
// while still unexpired: idle gaps between events are unbounded by design,
// and extending an already-exceeded write deadline is documented as
// unsupported (on HTTP/2 an expired deadline resets the stream even while
// idle). A write or flush error means the client is gone.
func (w *sseWriter) write(frame string) error {
	if err := w.setDeadline(time.Now().Add(sseWriteTimeout)); err != nil {
		return err
	}
	if _, err := io.WriteString(w.rw, frame); err != nil {
		return err
	}
	w.flusher.Flush()
	return w.setDeadline(time.Time{})
}

// setDeadline arms or clears the write deadline, tolerating transports
// without deadline support.
func (w *sseWriter) setDeadline(t time.Time) error {
	if err := w.ctl.SetWriteDeadline(t); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	return nil
}

// event renders and sends one session event. Stage events carry their
// sequence number as the SSE id (so reconnecting clients resume via
// Last-Event-ID); transition events are id-less progress signals.
func (w *sseWriter) event(ev session.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		w.logger.Warn("encoding SSE event", "error", err)
		return nil
	}
	if ev.Type == session.EventTransition {
		return w.write(fmt.Sprintf("event: transition\ndata: %s\n\n", data))
	}
	return w.write(fmt.Sprintf("id: %d\nevent: stage\ndata: %s\n\n", ev.Seq, data))
}

// handleEvents streams the session's stage events and run state
// transitions as server-sent events: stage history is replayed on connect
// (resumable via Last-Event-ID or ?after=seq), then live events flow until
// the client disconnects or the session closes. Idle periods carry
// keep-alive comments so intermediaries hold the connection open and dead
// peers are detected by the per-write deadline.
func (s *Server) handleEvents(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	flusher, ok := rw.(http.Flusher)
	if !ok {
		http.Error(rw, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w := &sseWriter{rw: rw, flusher: flusher, ctl: http.NewResponseController(rw), logger: s.logger}
	after := intQuery(r, "after", 0)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			after = n
		}
	}
	history, events, cancel := sess.Subscribe()
	defer cancel()
	rw.Header().Set("Content-Type", "text/event-stream")
	rw.Header().Set("Cache-Control", "no-cache")
	rw.Header().Set("Connection", "keep-alive")
	rw.WriteHeader(http.StatusOK)
	for _, ev := range history {
		if ev.Seq > after {
			if err := w.event(ev); err != nil {
				return
			}
		}
	}
	if err := w.write(": connected\n\n"); err != nil {
		return
	}
	ticker := time.NewTicker(s.sseKeepAlive)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if err := w.write(": keep-alive\n\n"); err != nil {
				return
			}
		case ev, ok := <-events:
			if !ok { // session closed
				w.write("event: close\ndata: {}\n\n")
				return
			}
			if err := w.event(ev); err != nil {
				return
			}
		}
	}
}

// handleExport answers the session as a snapshot envelope — the same bytes
// -data-dir persists, so an export re-imports on any server. The capture is
// taken between stages: a stage still running delays it until the stage
// ends, and is then in it whole. The envelope is encoded before its first
// byte is sent, so a session that cannot be encoded answers 500.
func (s *Server) handleExport(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	var envelope bytes.Buffer
	if err := store.ExportSession(&envelope, sess, s.runs); err != nil {
		s.logger.Error("exporting session", "session", sess.ID(), "error", err)
		writeError(rw, err)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", sess.ID()+store.SnapshotExt))
	if _, err := rw.Write(envelope.Bytes()); err != nil {
		s.logger.Error("exporting session", "session", sess.ID(), "error", err)
	}
}

// handleImport restores a session from an uploaded snapshot envelope:
// 201 with the restored state on success, 400 for malformed envelopes,
// 409 when the session ID is already live, 429 at the session cap, 500 when
// the data directory cannot take it. Like a created session's, the 201 is a
// durability acknowledgement: the imported state is on disk as the session's
// baseline snapshot before the response is written.
func (s *Server) handleImport(rw http.ResponseWriter, r *http.Request) {
	snap, err := store.ReadSessionSnapshot(http.MaxBytesReader(rw, r.Body, maxSnapshotBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(rw, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		writeError(rw, err)
		return
	}
	if !store.SafeID(snap.Meta.ID) {
		http.Error(rw, fmt.Sprintf("snapshot session ID %q is not importable", snap.Meta.ID),
			http.StatusBadRequest)
		return
	}
	// Imported snapshots must respect the same scenario-size policy as
	// session creation: restoring regenerates the scenario, and an
	// unbounded NProperties/NPostcodes would let one upload allocate
	// arbitrarily (negative sizes are rejected by store.Import itself).
	if cfg := snap.Meta.Scenario; cfg != nil && (cfg.NProperties > maxN || cfg.NPostcodes > maxN) {
		http.Error(rw, fmt.Sprintf("snapshot scenario size (%d properties, %d postcodes) exceeds the server limit %d",
			cfg.NProperties, cfg.NPostcodes, maxN), http.StatusBadRequest)
		return
	}
	sess, err := s.store.Import(snap)
	if err != nil {
		writeError(rw, err)
		return
	}
	s.logger.Info("imported session", "session", sess.ID(),
		"events", len(snap.Events), "runs", len(snap.Runs))
	rw.Header().Set("Location", "/api/v1/sessions/"+sess.ID())
	writeJSONStatus(rw, http.StatusCreated, sess.State())
}

// handleUpload feeds multipart files into the ingest stage: each file
// becomes one source (or, with ?role=context, data-context) relation named
// after its filename stem, decoded by extension (?format overrides). An
// optional "mapping" form field carries a JSON header→attribute mapping
// applied to every file; absent, headers are inferred against the session's
// target schema and data context. The files are ingested as one plan run, in
// upload order, that the response waits for: a failure aborts the remainder
// and already-ingested files stay.
func (s *Server) handleUpload(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	r.Body = http.MaxBytesReader(rw, r.Body, maxPayloadBytes)
	if err := r.ParseMultipartForm(maxPayloadBytes); err != nil {
		writeBodyError(rw, err)
		return
	}
	defer r.MultipartForm.RemoveAll()
	var mapping map[string]string
	if ms := r.FormValue("mapping"); ms != "" {
		if err := json.Unmarshal([]byte(ms), &mapping); err != nil {
			http.Error(rw, "decoding mapping: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	// Collect file parts across all field names in a deterministic order:
	// sorted field name, then upload order within the field.
	fields := make([]string, 0, len(r.MultipartForm.File))
	total := 0
	for name, parts := range r.MultipartForm.File {
		fields = append(fields, name)
		total += len(parts)
	}
	sort.Strings(fields)
	if total == 0 {
		http.Error(rw, "multipart body carries no files", http.StatusBadRequest)
		return
	}
	explicit := r.URL.Query().Get("relation")
	if explicit != "" && total > 1 {
		http.Error(rw, "?relation names a single file; got "+strconv.Itoa(total), http.StatusBadRequest)
		return
	}
	type ingested struct {
		File     string        `json:"file"`
		Relation string        `json:"relation"`
		Event    session.Event `json:"event"`
	}
	results := make([]ingested, 0, total)
	var plan session.Plan
	for _, field := range fields {
		for _, fh := range r.MultipartForm.File[field] {
			f, err := fh.Open()
			if err != nil {
				http.Error(rw, "opening upload "+fh.Filename+": "+err.Error(), http.StatusBadRequest)
				return
			}
			data, err := io.ReadAll(f)
			f.Close()
			if err != nil {
				writeBodyError(rw, err)
				return
			}
			name := explicit
			if name == "" {
				name = uploadRelationName(fh.Filename)
			}
			payload, err := json.Marshal(connect.IngestPayload{
				Relation: name,
				Format:   uploadFormat(fh.Filename, r.URL.Query().Get("format")),
				Role:     r.URL.Query().Get("role"),
				Data:     string(data),
				Mapping:  mapping,
			})
			if err != nil {
				writeError(rw, err)
				return
			}
			plan.Stages = append(plan.Stages, session.StageRequest{Stage: session.StageIngest, Payload: payload})
			results = append(results, ingested{File: fh.Filename, Relation: name})
		}
	}
	sub, err := s.runs.SubmitPlan(r.Context(), sess, plan)
	if err != nil {
		writeError(rw, err)
		return
	}
	run, err := sub.Wait(r.Context())
	if err != nil {
		writeError(rw, err)
		return
	}
	for i := range results {
		results[i].Event = run.Events[i]
	}
	writeJSON(rw, map[string]any{"files": len(results), "ingested": results})
}

// handleExportRelation streams one relation through the CSV/JSONL sink:
// the clean wrangling result for "result", any knowledge-base relation by
// (optionally src_/dc_-prefixed) name otherwise. Rows are rendered in
// canonical order, so identical state exports identical bytes.
func (s *Server) handleExportRelation(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	format, err := connect.NormalizeFormat(r.URL.Query().Get("format"))
	if err != nil {
		writeError(rw, err)
		return
	}
	name := r.PathValue("relation")
	rel, err := sess.Relation(name)
	if err != nil {
		writeError(rw, err)
		return
	}
	ctype, ext := "text/csv; charset=utf-8", ".csv"
	if format == connect.FormatJSONL {
		ctype, ext = "application/x-ndjson", ".jsonl"
	}
	rw.Header().Set("Content-Type", ctype)
	rw.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name+ext))
	t0 := time.Now()
	span := trace.ChildFromContext(r.Context(), "export.write",
		"relation", name, "format", format, "session", sess.ID())
	stats, err := connect.Write(rw, rel, format)
	if span != nil {
		span.EndErr(err)
	}
	if err != nil {
		// Headers are gone; log and drop the connection.
		s.logger.Error("exporting relation", "session", sess.ID(), "relation", name, "error", err)
		return
	}
	s.metrics.Counter(metrics.Name("connect_rows_total", "dir", "out", "format", stats.Format)).Add(int64(stats.Rows))
	s.metrics.Counter(metrics.Name("connect_bytes_total", "dir", "out", "format", stats.Format)).Add(stats.Bytes)
	s.metrics.Histogram(metrics.Name("connect_seconds", "dir", "out", "format", stats.Format)).ObserveSince(t0)
}

// uploadRelationName derives a relation name from an uploaded filename:
// the base name without its extension, anything outside the relation-name
// alphabet replaced by '_', prefixed with "f" when the result does not
// start with a letter.
func uploadRelationName(filename string) string {
	base := filepath.Base(filename)
	stem := strings.TrimSuffix(base, filepath.Ext(base))
	var b strings.Builder
	for _, r := range stem {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	name := b.String()
	if name == "" || !(name[0] >= 'a' && name[0] <= 'z' || name[0] >= 'A' && name[0] <= 'Z') {
		name = "f" + name
	}
	if len(name) > 128 {
		name = name[:128]
	}
	return name
}

// uploadFormat picks a file's wire format: the explicit override when
// given, else the filename extension, else the CSV default.
func uploadFormat(filename, override string) string {
	if override != "" {
		return override
	}
	switch strings.ToLower(filepath.Ext(filename)) {
	case ".jsonl", ".ndjson":
		return connect.FormatJSONL
	default:
		return ""
	}
}

func (s *Server) handleHealthz(rw http.ResponseWriter, _ *http.Request) {
	snap := s.metrics.Snapshot()
	out := map[string]any{
		"status":    "ok",
		"uptime_s":  int(time.Since(s.started).Seconds()),
		"sessions":  s.store.Len(),
		"run_stats": s.runs.Stats(),
		// The metricz roll-up: enough to spot trouble from a health probe,
		// with /api/v1/metricz carrying the full per-series breakdown.
		"metrics": map[string]int64{
			"http_requests_total":      metrics.SumCounters(snap, "http_requests_total"),
			"http_errors_total":        httpErrorTotal(snap),
			"runs_completed_total":     metrics.SumCounters(snap, "runs_completed_total"),
			"runs_rejected_total":      metrics.SumCounters(snap, "runs_queue_rejections_total"),
			"sse_dropped_events_total": metrics.SumCounters(snap, "sse_dropped_events_total"),
			"persist_fsync_total":      metrics.SumCounters(snap, "persist_fsync_total"),
			"connect_rows_total":       metrics.SumCounters(snap, "connect_rows_total"),
			"connect_bytes_total":      metrics.SumCounters(snap, "connect_bytes_total"),
			"advise_suggestions_total": metrics.SumCounters(snap, "advise_suggestions_total"),
			"advise_accepted_total":    metrics.SumCounters(snap, "advise_accepted_total"),
		},
		// The runtime sampler's latest gauges: enough to spot a goroutine
		// leak or heap growth from the same probe.
		"runtime": map[string]int64{
			"goroutines":       snap.Gauges[metrics.RuntimeGoroutines],
			"heap_inuse_bytes": snap.Gauges[metrics.RuntimeHeapInuse],
		},
		"traces": s.tracer.Store().Len(),
	}
	if st := s.store.Stats(); st != nil {
		out["persist"] = st
	}
	writeJSON(rw, out)
}

// handleSuggestions serves the advisor's ranked next actions for a session.
// Each suggestion carries a rationale and — when actionable — a ready-to-POST
// stage request, so a thin client can close the loop by replaying the action
// against POST .../stages/{name} verbatim.
func (s *Server) handleSuggestions(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	sugs, err := sess.Suggestions(r.Context())
	if err != nil {
		writeError(rw, err)
		return
	}
	if sugs == nil {
		sugs = []advise.Suggestion{}
	}
	writeJSON(rw, map[string]any{"total": len(sugs), "suggestions": sugs})
}

func (s *Server) handleResult(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	res, err := sess.Result()
	if err != nil {
		writeError(rw, err)
		return
	}
	limit := intQuery(r, "limit", 100)
	offset := intQuery(r, "offset", 0)
	if limit <= 0 {
		limit = 100
	}
	if limit > maxResultPageSize {
		limit = maxResultPageSize
	}
	if offset < 0 {
		offset = 0
	}
	total := res.Cardinality()
	rows := make([]map[string]string, 0, min(limit, max(0, total-offset)))
	for i := offset; i < total && len(rows) < limit; i++ {
		row := map[string]string{}
		for j, a := range res.Schema.Attrs {
			row[a.Name] = res.Tuples[i][j].String()
		}
		rows = append(rows, row)
	}
	out := map[string]any{"total": total, "offset": offset, "limit": limit, "rows": rows}
	if next := offset + len(rows); next < total {
		out["next_offset"] = next
	}
	writeJSON(rw, out)
}

func (s *Server) handleTrace(rw http.ResponseWriter, r *http.Request) {
	sess, err := s.store.Get(r.PathValue("id"))
	if err != nil {
		writeError(rw, err)
		return
	}
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(rw, transducer.TraceString(sess.Trace()))
}

func (s *Server) handleIndex(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(rw, indexHTML)
}

// decodeBody decodes a JSON request body into v strictly, like the stage
// payload codecs: a body past maxPayloadBytes is a 413, and an unknown field
// (a misspelled key must not silently take its default) or anything after
// the value is a 400. It answers the failure itself and reports whether v
// was decoded.
func decodeBody(rw http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxPayloadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(rw, err)
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		http.Error(rw, "trailing data after "+what+" JSON", http.StatusBadRequest)
		return false
	}
	return true
}

// writeBodyError maps a request-body read failure onto a status code:
// bodies over the payload cap are 413, everything else 400.
func writeBodyError(rw http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(rw, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(rw, "reading request body: "+err.Error(), http.StatusBadRequest)
}

// writeError maps the API's sentinel errors onto HTTP status codes.
// Load-shedding rejections (session cap, run queue full) carry a
// Retry-After hint so well-behaved clients back off instead of hammering.
func writeError(rw http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, session.ErrNotFound), errors.Is(err, core.ErrNoResult),
		errors.Is(err, runs.ErrNotFound), errors.Is(err, connect.ErrUnknownRelation):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrUnknownUserContext), errors.Is(err, core.ErrNoDataContext),
		errors.Is(err, session.ErrUnknownStage), errors.Is(err, session.ErrBadPayload),
		errors.Is(err, runs.ErrBadPlan), errors.Is(err, store.ErrBadSnapshot),
		errors.Is(err, store.ErrBadMagic), errors.Is(err, store.ErrBadVersion),
		errors.Is(err, store.ErrTruncated), errors.Is(err, store.ErrChecksum),
		errors.Is(err, store.ErrTooLarge),
		errors.Is(err, connect.ErrBadFormat), errors.Is(err, connect.ErrSchemaMismatch):
		status = http.StatusBadRequest
	case errors.Is(err, session.ErrExists), errors.Is(err, runs.ErrCancelled):
		status = http.StatusConflict
	case errors.Is(err, session.ErrLimit), errors.Is(err, runs.ErrQueueFull):
		status = http.StatusTooManyRequests
		rw.Header().Set("Retry-After", "1")
	case errors.Is(err, connect.ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, connect.ErrFetchFailed):
		status = http.StatusBadGateway
	case errors.Is(err, session.ErrClosed):
		status = http.StatusGone
	case errors.Is(err, runs.ErrEngineClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, store.ErrNotDurable):
		status = http.StatusInternalServerError
	}
	http.Error(rw, err.Error(), status)
}

func intQuery(r *http.Request, key string, def int) int {
	if v := r.URL.Query().Get(key); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func writeJSON(rw http.ResponseWriter, v any) {
	writeJSONStatus(rw, http.StatusOK, v)
}

func writeJSONStatus(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	enc := json.NewEncoder(rw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		slog.Default().Warn("encoding response", "error", err)
	}
}

// indexHTML is the single-page mirror of Figure 3, now table- and
// push-driven: it creates a session via /api/v1, invokes stages through the
// uniform stages/{name} route (or submits all four as one declarative
// plan), and drives every refresh off the session's SSE stream — stage
// events re-render the panels, transition events animate run progress.
const indexHTML = `<!DOCTYPE html>
<html><head><title>VADA — pay-as-you-go data wrangling</title>
<style>
 body { font-family: system-ui, sans-serif; margin: 1.5em; max-width: 72em; }
 h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.2em; }
 button { margin-right: .5em; padding: .4em .8em; }
 table { border-collapse: collapse; font-size: .85em; margin-top: .5em; }
 td, th { border: 1px solid #ccc; padding: .2em .5em; text-align: left; }
 pre { background: #f6f6f6; padding: .8em; overflow-x: auto; font-size: .8em; }
 .row { display: flex; gap: 2em; flex-wrap: wrap; }
 .col { flex: 1; min-width: 24em; }
 #sid, #plan { color: #666; font-size: .85em; }
</style></head>
<body>
<h1>VADA — pay-as-you-go data wrangling (SIGMOD'17 demonstration)</h1>
<p>Work through the four steps of the demonstration one at a time, or submit
them as a single declarative plan: one cancellable run whose per-stage
progress streams back over the session's event channel. Every stage is an
entry of one fixed stage table behind the uniform stages/{name} route. Every browser tab
gets its own wrangling session.</p>
<p id="sid">(creating session…)</p>
<div>
 <button onclick="step('bootstrap')">1&nbsp;Bootstrap</button>
 <button onclick="step('data-context')">2&nbsp;Add data context</button>
 <button onclick="step('feedback', {budget: 100})">3&nbsp;Give feedback</button>
 <button onclick="step('user-context', {model: 'crime'})">4a&nbsp;Crime user context</button>
 <button onclick="step('user-context', {model: 'size'})">4b&nbsp;Size user context</button>
 <button onclick="runPlan()">▶&nbsp;Run all four as a plan</button>
 <button onclick="closeSession()">Close session</button>
</div>
<p id="plan"></p>
<div class="row">
 <div class="col"><h2>Stages</h2><pre id="stages">(none yet)</pre>
  <h2>Selected mappings</h2><pre id="selected"></pre></div>
 <div class="col"><h2>Runs</h2><pre id="runs">(none yet)</pre>
  <h2>Sessions on this server</h2><pre id="sessions"></pre></div>
</div>
<h2>Result (first rows)</h2>
<div id="result">(bootstrap first)</div>
<h2>Orchestration trace</h2>
<pre id="trace"></pre>
<script>
let sid = null, es = null;
const api = p => '/api/v1/sessions' + p;
async function ensureSession() {
  if (sid) return sid;
  const resp = await fetch(api(''), {method: 'POST', headers: {'Content-Type': 'application/json'},
    body: JSON.stringify({name: 'ui'})});
  sid = (await resp.json()).id;
  document.getElementById('sid').textContent = 'session ' + sid;
  es = new EventSource(api('/' + sid + '/events'));
  es.addEventListener('stage', () => refresh());
  es.addEventListener('transition', e => onTransition(JSON.parse(e.data)));
  es.addEventListener('close', () => es.close());
  return sid;
}
function onTransition(ev) {
  const t = ev.run || {};
  let text = 'run ' + t.run_id + ': ' + t.state;
  if (t.stage_count > 1) text += ' — stage ' + (t.stage_index + 1) + '/' + t.stage_count + ' (' + t.stage + ')';
  else if (t.stage) text += ' (' + t.stage + ')';
  if (t.error) text += ' — ' + t.error;
  document.getElementById('plan').textContent = text;
  refreshRuns();
  // Failed and cancelled runs emit no stage event, so terminal transitions
  // also refresh the panels.
  if (t.state === 'failed' || t.state === 'cancelled') refresh();
}
// Transitions drive the page, but they are lossy by design (live-only,
// dropped for slow subscribers); while any run is still live, a slow poll
// backstop guarantees the panels eventually resolve even if the terminal
// transition was missed.
let runTimer = null;
async function refreshRuns() {
  if (!sid) return;
  const resp = await fetch(api('/' + sid + '/runs'));
  if (!resp.ok) return;
  const data = await resp.json();
  document.getElementById('runs').textContent = (data.runs||[]).map(r => {
     let line = r.id + '  ' + r.stage.padEnd(14) + r.state;
     if (r.plan) line += ' [' + ((r.events||[]).length) + '/' + r.plan.length + ' stages]';
     if (r.error) line += ' (' + r.error + ')';
     return line;
  }).join('\n') || '(none yet)';
  const live = (data.runs||[]).some(r => r.state === 'queued' || r.state === 'running');
  if (live && !runTimer) {
    runTimer = setTimeout(() => { runTimer = null; refresh(); }, 2000);
  }
}
async function refresh() {
  if (!sid) return;
  const st = await (await fetch(api('/' + sid))).json();
  document.getElementById('selected').textContent = (st.selected_mappings||[]).join('\n');
  document.getElementById('stages').textContent = (st.events||[]).map(e =>
     e.stage.padEnd(14) + (e.score ? ' F1=' + e.score.F1.toFixed(3) +
     ' val-acc=' + e.score.ValueAccuracy.toFixed(3) : '')).join('\n') || '(none yet)';
  document.getElementById('trace').textContent = await (await fetch(api('/' + sid + '/trace'))).text();
  const all = await (await fetch(api(''))).json();
  document.getElementById('sessions').textContent = (all.sessions||[]).map(s =>
     s.id + (s.name ? ' (' + s.name + ')' : '') + ' — ' + (s.events||[]).length + ' stages, ' +
     s.result_rows + ' rows').join('\n');
  await refreshRuns();
  const res = await fetch(api('/' + sid + '/result?limit=25'));
  if (res.ok) {
    const data = await res.json();
    if (data.rows.length) {
      const cols = Object.keys(data.rows[0]).sort();
      let html = '<table><tr>' + cols.map(c => '<th>'+c+'</th>').join('') + '</tr>';
      for (const r of data.rows)
        html += '<tr>' + cols.map(c => '<td>'+(r[c]||'∅')+'</td>').join('') + '</tr>';
      html += '</table><p>' + data.total + ' rows total</p>';
      document.getElementById('result').innerHTML = html;
    }
  }
}
function rejected(resp, text) {
  document.getElementById('runs').textContent = 'submit rejected: ' + resp.status + ' ' + text.trim();
}
async function step(name, payload) {
  await ensureSession();
  // Invoke through the uniform stage route as an async run; the SSE
  // transition and stage events drive every refresh from here.
  const resp = await fetch(api('/' + sid + '/stages/' + name + '?async=1'),
    {method: 'POST', headers: {'Content-Type': 'application/json'},
     body: payload ? JSON.stringify(payload) : null});
  if (!resp.ok) { rejected(resp, await resp.text()); return; }
  await refreshRuns();
}
async function runPlan() {
  await ensureSession();
  // The whole demonstration as one declarative plan: a single cancellable
  // run whose queued → running → stage k/n → terminal transitions arrive
  // over the event stream.
  const plan = {stages: [
    {stage: 'bootstrap'},
    {stage: 'data-context'},
    {stage: 'feedback', payload: {budget: 100}},
    {stage: 'user-context', payload: {model: 'crime'}},
  ]};
  const resp = await fetch(api('/' + sid + '/plans'),
    {method: 'POST', headers: {'Content-Type': 'application/json'}, body: JSON.stringify(plan)});
  if (!resp.ok) { rejected(resp, await resp.text()); return; }
  await refreshRuns();
}
async function closeSession() {
  if (!sid) return;
  if (es) { es.close(); es = null; }
  await fetch(api('/' + sid), {method: 'DELETE'});
  sid = null;
  document.getElementById('sid').textContent = '(session closed — reload to start another)';
}
ensureSession().then(refresh);
</script>
</body></html>
`

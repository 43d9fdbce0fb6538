// Package vada is a from-scratch reproduction of "The VADA Architecture for
// Cost-Effective Data Wrangling" (Konstantinou et al., SIGMOD 2017): an
// end-to-end, dynamically orchestrated data-wrangling system.
//
// The architecture (Figure 1 of the paper) consists of a knowledge base, a
// Vadalog (Datalog±) reasoner, and a collection of transducers — wrangling
// components whose input dependencies are declared as Vadalog queries over
// the knowledge base — coordinated by a network transducer. Wrangling is
// pay-as-you-go: a fully automatic bootstrap produces an initial result,
// which improves as the user supplies data context (reference data),
// feedback (correctness annotations) and user context (pairwise priorities
// over quality criteria).
//
// # Quickstart
//
//	w := vada.New(vada.WithMatchThreshold(0.6))  // options over production defaults
//	w.RegisterSource(myRelation)           // or RegisterWebSource(...)
//	w.SetTargetSchema(myTargetSchema)
//	if _, err := w.Run(ctx); err != nil {  // step 1: automatic bootstrap
//		...
//	}
//	result := w.ResultClean()
//
// Then pay as you go:
//
//	w.AddDataContext(referenceData)        // step 2: data context
//	w.Run(ctx)
//	w.AddFeedback(items...)                // step 3: feedback
//	w.Run(ctx)
//	w.SetUserContext(priorities)           // step 4: user context
//	w.Run(ctx)
//
// # Sessions
//
// Services host many concurrent wrangling conversations as Sessions: each
// wraps one Wrangler, serialises its runs, and records a typed Event per
// stage; a SessionManager creates, lists and closes them by ID:
//
//	mgr := vada.NewSessionManager(vada.WithMaxSessions(100))
//	sess, err := mgr.Create(vada.BuildScenarioWrangler(sc), vada.WithScenario(sc, seed))
//	ev, err := sess.Bootstrap(ctx)
//
// Stages are first-class values: a Stage (name, JSON payload codec, apply
// function) lives in a StageRegistry pre-populated with the four paper
// stages, and Session.Apply is the single choke point every invocation —
// named method, HTTP route, or plan step — funnels through:
//
//	ev, err := sess.Apply(ctx, vada.StageRequest{
//		Stage:   vada.StageFeedback,
//		Payload: []byte(`{"budget": 120}`),
//	})
//
// Long-running stages can execute asynchronously on a RunEngine, which
// turns each invocation into a pollable, cancellable Run resource with
// per-session FIFO ordering; a declarative Plan (an ordered list of
// StageRequests) runs as one cancellable multi-stage Run. Session.Subscribe
// streams the typed stage events — and, via WithRunNotify, every run state
// transition — to live consumers:
//
//	engine := vada.NewRunEngine(vada.WithRunWorkers(8))
//	run, err := engine.Submit(sess.ID(), "bootstrap", sess.Bootstrap)
//	_, events, cancel := sess.Subscribe(16)
//
// cmd/vada-server exposes this lifecycle as the versioned REST API under
// /api/v1/sessions, including the generic stages/{name} route, plans,
// stage discovery under /api/v1/stages, ?async=1 run resources and SSE
// event streaming under /api/v1/sessions/{id}/events.
//
// The exported identifiers are aliases of the internal implementation
// packages, so the full functionality is reachable through this single
// import.
package vada

import (
	"vada/internal/advise"
	"vada/internal/cfd"
	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/extract"
	"vada/internal/feedback"
	"vada/internal/fusion"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/match"
	"vada/internal/mcda"
	"vada/internal/metrics"
	"vada/internal/persist"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/trace"
	"vada/internal/transducer"
	"vada/internal/vadalog"
)

// ---- the system ----------------------------------------------------------

// Wrangler is the VADA system: knowledge base, reasoner, transducer
// registry and orchestrator behind the pay-as-you-go API.
type Wrangler = core.Wrangler

// Options is the full Wrangler configuration; Option is one functional
// tweak applied over production defaults.
type (
	Options = core.Options
	Option  = core.Option
)

// New creates a Wrangler with the standard transducer suite, configured by
// functional options over production defaults.
func New(opts ...Option) *Wrangler { return core.NewWrangler(opts...) }

// DefaultOptions returns production defaults; combine with WithOptions to
// install a hand-edited struct (the pre-functional-options construction
// path).
func DefaultOptions() Options { return core.DefaultOptions() }

// Functional options for New and BuildScenarioWrangler.
var (
	WithOptions          = core.WithOptions
	WithMatchThreshold   = core.WithMatchThreshold
	WithFusionThreshold  = core.WithFusionThreshold
	WithMineOptions      = core.WithMineOptions
	WithGenOptions       = core.WithGenOptions
	WithMinCoverage      = core.WithMinCoverage
	WithRangeRuleSupport = core.WithRangeRuleSupport
	WithMaxSteps         = core.WithMaxSteps
	WithNetwork          = core.WithNetwork
	WithFusionBlocking   = core.WithFusionBlocking
)

// Sentinel errors of the wrangling and session APIs; branch with errors.Is.
var (
	ErrNoResult           = core.ErrNoResult
	ErrNoDataContext      = core.ErrNoDataContext
	ErrUnknownUserContext = core.ErrUnknownUserContext
	ErrSessionNotFound    = session.ErrNotFound
	ErrSessionClosed      = session.ErrClosed
	ErrSessionLimit       = session.ErrLimit
	ErrUnknownStage       = session.ErrUnknownStage
	ErrBadStagePayload    = session.ErrBadPayload
	ErrBadStage           = session.ErrBadStage
	ErrRunNotFound        = runs.ErrNotFound
	ErrRunQueueFull       = runs.ErrQueueFull
	ErrRunEngineClosed    = runs.ErrEngineClosed
	ErrBadPlan            = runs.ErrBadPlan
	ErrSessionExists      = session.ErrExists
	ErrBadSnapshot        = persist.ErrBadSnapshot
	ErrSnapshotMagic      = persist.ErrBadMagic
	ErrSnapshotVersion    = persist.ErrBadVersion
	ErrSnapshotTruncated  = persist.ErrTruncated
	ErrSnapshotChecksum   = persist.ErrChecksum
	ErrSnapshotTooLarge   = persist.ErrTooLarge
	ErrBadKBSnapshot      = kb.ErrBadSnapshot
)

// ---- sessions -------------------------------------------------------------

// Session is one pay-as-you-go wrangling conversation; SessionManager
// serves many of them concurrently; SessionEvent is the typed record of one
// completed stage; SessionState is the JSON-ready summary.
type (
	Session        = session.Session
	SessionManager = session.Manager
	SessionEvent   = session.Event
	SessionState   = session.State
	SessionOption  = session.Option
	ManagerOption  = session.ManagerOption
)

// Session construction and manager configuration.
var (
	NewSession        = session.New
	NewSessionManager = session.NewManager
	WithSessionName   = session.WithName
	WithScenario      = session.WithScenario
	WithMaxSessions   = session.WithMaxSessions
	WithStopHook      = session.WithStopHook
	WithEvictHook     = session.WithEvictHook
	WithRestored      = session.WithRestored

	// WithStageCommitHook is the stage hook the journal feeds on: capture
	// under the run mutex, durability wait after it is released.
	WithStageCommitHook = session.WithStageCommitHook
)

// ---- durable sessions ------------------------------------------------------

// SessionSnapshot is the decoded form of one persisted session — identity,
// configuration, knowledge base, stage-event history and terminal runs;
// SnapshotMeta is its identity/configuration section. Snapshots travel as
// versioned, length-prefixed, checksummed envelopes (format v1).
type (
	SessionSnapshot = persist.SessionSnapshot
	SnapshotMeta    = persist.Meta
)

// Session persistence: capture or stream a session snapshot, decode an
// envelope, and restore into live sessions (optionally registering with a
// manager and rehydrating run history into an engine).
var (
	CaptureSession       = persist.CaptureSession
	ExportSession        = persist.ExportSession
	WriteSessionSnapshot = persist.WriteSessionSnapshot
	ReadSessionSnapshot  = persist.ReadSessionSnapshot
	RestoreSession       = persist.RestoreSession
	RestoreSessionInto   = persist.RestoreInto
)

// UserContextByName resolves the demonstration user contexts ("crime",
// "size") by name.
var UserContextByName = core.UserContextByName

// ---- stages ----------------------------------------------------------------

// Stage is one pluggable wrangling stage (name, JSON payload codec, apply
// function); StageRegistry maps names to stages; StageRequest is the
// uniform wire form of a stage invocation; Plan is an ordered list of
// requests executed as one cancellable run; RunTransition is the
// run-progress attachment streamed to event subscribers.
type (
	Stage           = session.Stage
	StageRegistry   = session.Registry
	StageRequest    = session.StageRequest
	StageInfo       = session.StageInfo
	Plan            = session.Plan
	RunTransition   = session.RunTransition
	FeedbackPayload = session.FeedbackPayload
)

// Names of the four paper stages, pre-registered by DefaultStageRegistry.
const (
	StageBootstrap   = session.StageBootstrap
	StageDataContext = session.StageDataContext
	StageFeedback    = session.StageFeedback
	StageUserContext = session.StageUserContext
)

// Event types on the session subscriber channel.
const (
	EventStage      = session.EventStage
	EventTransition = session.EventTransition
)

// Stage registry construction and session wiring.
var (
	NewStageRegistry     = session.NewRegistry
	DefaultStageRegistry = session.DefaultRegistry
	WithStageRegistry    = session.WithRegistry
)

// ---- connectors ------------------------------------------------------------

// Connector payloads: the typed wire forms of the ingest/fetch/export/
// quality-report stages. ConnectStats reports rows/bytes/format through a
// connector; ConnectReadOptions and ConnectFetchOptions parameterise the
// library-level source readers.
type (
	IngestPayload       = connect.IngestPayload
	FetchPayload        = connect.FetchPayload
	ExportPayload       = connect.ExportPayload
	QualityPayload      = connect.QualityPayload
	ConnectStats        = connect.Stats
	ConnectReadOptions  = connect.ReadOptions
	ConnectFetchOptions = connect.FetchOptions
)

// Names of the connector stages, pre-registered by DefaultStageRegistry,
// and the wire formats and ingest roles they speak.
const (
	StageIngest        = session.StageIngest
	StageFetch         = session.StageFetch
	StageExport        = session.StageExport
	StageQualityReport = session.StageQualityReport
	FormatCSV          = connect.FormatCSV
	FormatJSONL        = connect.FormatJSONL
	RoleSource         = connect.RoleSource
	RoleContext        = connect.RoleContext
)

// Sentinel errors of the connector subsystem; branch with errors.Is.
var (
	ErrBadFormat       = connect.ErrBadFormat
	ErrSchemaMismatch  = connect.ErrSchemaMismatch
	ErrTooLarge        = connect.ErrTooLarge
	ErrFetchFailed     = connect.ErrFetchFailed
	ErrUnknownRelation = connect.ErrUnknownRelation
)

// Connector entry points: decode external bytes into relations, fetch over
// HTTP, render relations canonically, and the header→attribute mapping
// machinery behind them.
var (
	ConnectRead     = connect.Read
	ConnectFetch    = connect.Fetch
	ConnectWrite    = connect.Write
	InferMapping    = connect.InferMapping
	MapHeader       = connect.MapHeader
	NormalizeFormat = connect.NormalizeFormat
	QualityRelation = connect.QualityRelation
)

// ---- advisor ---------------------------------------------------------------

// Advisor ranks candidate next actions over an AdvisorState snapshot of a
// wrangling session; Suggestion is one ranked recommendation whose
// SuggestionAction — when present — is a ready-to-POST stage request.
// FeedbackBatchPayload is the typed payload of the feedback-batch stage.
type (
	Advisor              = advise.Advisor
	Suggestion           = advise.Suggestion
	SuggestionAction     = advise.Action
	AdvisorState         = advise.State
	StageField           = session.StageField
	FeedbackBatchPayload = session.FeedbackBatchPayload
)

// Suggestion kinds.
const (
	SuggestionStage    = advise.KindStage
	SuggestionFeedback = advise.KindFeedback
	SuggestionMatch    = advise.KindMatch
)

// StageFeedbackBatch is the journaled batch-acceptance stage the advisor's
// feedback suggestions target, pre-registered by DefaultStageRegistry.
const StageFeedbackBatch = session.StageFeedbackBatch

// Advisor construction and session wiring. AdvisorSnapshot derives the
// ranking signals from a wrangler; WithAdvisor swaps the session's advisor
// implementation (default: the heuristic one).
var (
	NewHeuristicAdvisor = advise.NewHeuristic
	AdvisorSnapshot     = advise.Snapshot
	WithAdvisor         = session.WithAdvisor
)

// ---- async runs ------------------------------------------------------------

// RunEngine executes wrangling stages asynchronously on a worker pool; each
// invocation is a Run resource with a RunState lifecycle (queued → running →
// succeeded | failed | cancelled). Runs of one session execute FIFO; runs of
// independent sessions proceed in parallel.
type (
	RunEngine       = runs.Engine
	Run             = runs.Run
	RunState        = runs.State
	RunFunc         = runs.Func
	RunStats        = runs.Stats
	RunEngineOption = runs.Option
)

// Run lifecycle states.
const (
	RunQueued    = runs.StateQueued
	RunRunning   = runs.StateRunning
	RunSucceeded = runs.StateSucceeded
	RunFailed    = runs.StateFailed
	RunCancelled = runs.StateCancelled
)

// Run-engine construction and configuration.
var (
	NewRunEngine        = runs.New
	WithRunWorkers      = runs.WithWorkers
	WithRunQueueDepth   = runs.WithQueueDepth
	WithRunSessionQueue = runs.WithSessionQueue
	WithRunRetention    = runs.WithRetention
	WithRunNotify       = runs.WithNotify
)

// ---- relational model -----------------------------------------------------

// Value is a typed scalar; Schema, Tuple and Relation form the relational
// substrate all transducers exchange.
type (
	Value    = relation.Value
	Kind     = relation.Kind
	Schema   = relation.Schema
	Tuple    = relation.Tuple
	Relation = relation.Relation
)

// Value constructors and schema helpers.
var (
	NewSchema   = relation.NewSchema
	ParseSchema = relation.ParseSchema
	NewRelation = relation.New
	NewTuple    = relation.NewTuple
	NullValue   = relation.Null
	StringValue = relation.String
	IntValue    = relation.Int
	FloatValue  = relation.Float
	BoolValue   = relation.Bool
	ReadCSV     = relation.ReadCSV
)

// ---- knowledge base and reasoner -------------------------------------------

// KB is the knowledge base; Engine is the Vadalog reasoner.
type (
	KB      = kb.KB
	Engine  = vadalog.Engine
	Program = vadalog.Program
	Query   = vadalog.Query
	Binding = vadalog.Binding
)

// Reasoner construction, parsing and KB persistence.
var (
	NewKB          = kb.New
	NewEngine      = vadalog.NewEngine
	ParseVadalog   = vadalog.Parse
	ParseQuery     = vadalog.ParseQuery
	IsLabelledNull = vadalog.IsLabelledNull
	ReadSnapshot   = kb.ReadSnapshot
)

// ---- transducer framework ---------------------------------------------------

// Transducer, Dependency and the orchestration types let applications extend
// the wrangling process with their own components (§4 of the paper).
type (
	Transducer        = transducer.Transducer
	TransducerFunc    = transducer.Func
	Dependency        = transducer.Dependency
	Report            = transducer.Report
	Step              = transducer.Step
	NetworkTransducer = transducer.NetworkTransducer
	GenericNetwork    = transducer.GenericNetwork
	PreferNetwork     = transducer.PreferNetwork
)

// Network-transducer construction and trace rendering.
var (
	NewGenericNetwork = transducer.NewGenericNetwork
	TraceString       = transducer.TraceString
)

// ---- matching, mapping, quality, fusion -------------------------------------

// Component-level types for applications driving the substrates directly.
type (
	Match          = match.Match
	Mapping        = mapping.Mapping
	InclusionDep   = mapping.InclusionDep
	CFD            = cfd.CFD
	CFDMineOptions = cfd.MineOptions
	RepairAction   = cfd.RepairAction
	RepairOptions  = cfd.RepairOptions
	QualityReport  = quality.Report
	FusionOptions  = fusion.Options
	BlockingKey    = fusion.BlockingKey
	PairScorer     = fusion.PairScorer
)

// SourceCandidate pairs a source with its quality report for source
// selection (§2.3).
type SourceCandidate = mapping.SourceCandidate

// Component-level entry points.
var (
	MatchSchemas          = match.MatchSchemas
	MatchInstances        = match.MatchInstances
	GenerateMappings      = mapping.Generate
	ExecuteMapping        = mapping.Execute
	SelectSources         = mapping.SelectSources
	TopKSources           = mapping.TopKSources
	DiscoverInclusionDeps = mapping.DiscoverInclusionDeps
	MineCFDs              = cfd.Mine
	DefaultMineOptions    = cfd.DefaultMineOptions
	RepairWithReference   = cfd.RepairWithReference
	DefaultRepairOptions  = cfd.DefaultRepairOptions
	AssessQuality         = quality.Assess
	DetectDuplicates      = fusion.DetectDuplicates
	Fuse                  = fusion.Fuse
	BlockByAttr           = fusion.BlockByAttr
	DefaultPairScorer     = fusion.DefaultScorer
)

// ---- user context (MCDA) ----------------------------------------------------

// UserContext carries pairwise priorities; Criterion identifies a quality
// feature of the result.
type (
	UserContext = mcda.Model
	Criterion   = mcda.Criterion
	Strength    = mcda.Strength
	Comparison  = mcda.Comparison
)

// Verbal importance scale of the paper (Figure 2(d)).
const (
	Equal        = mcda.Equal
	Moderately   = mcda.Moderately
	Strongly     = mcda.Strongly
	VeryStrongly = mcda.VeryStrongly
	Extremely    = mcda.Extremely
)

// User-context construction.
var (
	NewUserContext = mcda.NewModel
	ParseStrength  = mcda.ParseStrength
)

// ---- feedback ----------------------------------------------------------------

// FeedbackItem is one correctness annotation (§2.3).
type FeedbackItem = feedback.Item

// ---- web extraction ------------------------------------------------------------

// Extraction types for registering deep-web sources.
type (
	SiteTemplate = extract.SiteTemplate
	Page         = extract.Page
	Annotation   = extract.Annotation
	Wrapper      = extract.Wrapper
)

// Extraction entry points, including the demonstration portal templates.
var (
	ParseHTML            = extract.ParseHTML
	GeneratePages        = extract.GeneratePages
	InduceWrapper        = extract.InduceWrapper
	BootstrapAnnotations = extract.BootstrapAnnotations
	RightmoveTemplate    = extract.RightmoveTemplate
	OnTheMarketTemplate  = extract.OnTheMarketTemplate
)

// CanonicalPostcode normalises UK-style postcodes (case and spacing).
var CanonicalPostcode = datagen.CanonicalPostcode

// ---- demonstration scenario ------------------------------------------------------

// Scenario bundles the paper's real-estate demonstration data with ground
// truth; ScenarioConfig controls generation.
type (
	Scenario       = datagen.Scenario
	ScenarioConfig = datagen.Config
	Oracle         = datagen.Oracle
	ResultScore    = datagen.Score
)

// Scenario generation and the pay-as-you-go experiment harness (§3).
var (
	GenerateScenario         = datagen.Generate
	DefaultScenarioConfig    = datagen.DefaultConfig
	TargetSchema             = datagen.TargetSchema
	BuildScenarioWrangler    = core.BuildScenarioWrangler
	CrimeAnalysisUserContext = core.CrimeAnalysisUserContext
	SizeAnalysisUserContext  = core.SizeAnalysisUserContext
	OracleFeedback           = core.OracleFeedback
	RunPayAsYouGo            = core.RunPayAsYouGo
	DefaultPayAsYouGoConfig  = core.DefaultPayAsYouGoConfig
	FormatStages             = core.FormatStages
)

// PayAsYouGoConfig and StageScore parameterise and report the four-step
// demonstration.
type (
	PayAsYouGoConfig = core.PayAsYouGoConfig
	StageScore       = core.StageScore
)

// ---- observability (metrics) -----------------------------------------------

// MetricsRegistry holds named Counter/Gauge/Histogram instruments;
// MetricsSnapshot is its JSON-ready point-in-time projection (the
// /api/v1/metricz payload). Histograms are fixed-bucket with p50/p90/p99
// estimation; MetricsDefBuckets are the default latency bounds in seconds.
type (
	MetricsRegistry          = metrics.Registry
	MetricsCounter           = metrics.Counter
	MetricsGauge             = metrics.Gauge
	MetricsHistogram         = metrics.Histogram
	MetricsSnapshot          = metrics.Snapshot
	MetricsHistogramSnapshot = metrics.HistogramSnapshot
	MetricsBucket            = metrics.Bucket
)

// Metrics constructors and helpers: NewMetricsRegistry builds a registry,
// MetricName composes `base{k="v"}` series names, MetricsCounterDelta diffs
// two snapshots (interval activity), SumMetricsCounters rolls up a name
// prefix.
var (
	NewMetricsRegistry  = metrics.NewRegistry
	NewMetricsHistogram = metrics.NewHistogram
	MetricName          = metrics.Name
	MetricsCounterDelta = metrics.CounterDelta
	SumMetricsCounters  = metrics.SumCounters
	MetricsDefBuckets   = metrics.DefBuckets
)

// Instrumentation options: hand one shared registry to the run engine
// (queue/stage/cancellation series), each session (SSE fan-out series) and
// the session manager (population series); the service's store reports the
// durability series.
var (
	WithRunMetrics     = runs.WithMetrics
	WithSessionMetrics = session.WithMetrics
	WithManagerMetrics = session.WithManagerMetrics
)

// WritePrometheus renders a MetricsSnapshot in the Prometheus text
// exposition format (the /api/v1/metricz?format=prometheus payload);
// StartRuntimeSampler feeds goroutine/heap/GC gauges into a registry on an
// interval, returning its stop function.
var (
	WritePrometheus     = metrics.WritePrometheus
	StartRuntimeSampler = metrics.StartRuntimeSampler
)

// Gauge names the runtime sampler maintains.
const (
	MetricRuntimeGoroutines  = metrics.RuntimeGoroutines
	MetricRuntimeHeapAlloc   = metrics.RuntimeHeapAlloc
	MetricRuntimeHeapInuse   = metrics.RuntimeHeapInuse
	MetricRuntimeHeapObjects = metrics.RuntimeHeapObjects
	MetricRuntimeGCCycles    = metrics.RuntimeGCCycles
	MetricRuntimeGCPauseLast = metrics.RuntimeGCPauseLastNs
)

// ---- observability (tracing) -------------------------------------------------

// Tracer mints per-request root spans and records finished spans;
// TraceSpan is a live span handle (nil-safe: a nil span no-ops, so
// instrumented code never branches on tracing being enabled); TraceSpanData
// is the JSON form of a finished span; TraceStore is the bounded
// ring-buffer retaining them grouped by trace; TraceNode is the span-tree
// projection served by GET /api/v1/traces/{id}; TraceSummary and
// TraceFilter list and filter retained traces.
type (
	Tracer        = trace.Tracer
	TraceSpan     = trace.Span
	TraceSpanData = trace.SpanData
	TraceStore    = trace.Store
	TraceNode     = trace.Node
	TraceSummary  = trace.Summary
	TraceFilter   = trace.Filter
	TracerOption  = trace.Option
)

// Tracing construction, context propagation and W3C traceparent interop.
// Spans flow through context.Context: the HTTP middleware stores the root
// span with TraceNewContext, the run engine re-parents it across the async
// boundary, and TraceFromContext/TraceChildFromContext pick it up at any
// instrumentation site.
var (
	NewTracer             = trace.NewTracer
	NewTraceStore         = trace.NewStore
	WithTraceSlowSpans    = trace.WithSlowThreshold
	WithTraceLogger       = trace.WithLogger
	TraceNewContext       = trace.NewContext
	TraceFromContext      = trace.FromContext
	TraceChildFromContext = trace.ChildFromContext
	ParseTraceparent      = trace.ParseTraceparent
	FormatTraceparent     = trace.FormatTraceparent
	NewRequestID          = trace.NewRequestID
)

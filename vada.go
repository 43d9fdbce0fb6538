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
//	w := vada.New(vada.WithMinCoverage(2)) // one of the two options
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
// # Surface
//
// This package is the library's client surface, and a small one: it
// declares exactly the names that cmd/vada, the programs under examples/
// and vada_test.go call, each an alias of the internal package that
// implements it (TestFacadeSurface fails on a name nobody uses). The
// methods of the aliased types — Wrangler, Session, the run engine, the
// reasoner — are reachable through the values these constructors return.
// Nothing under internal/ imports this package: the implementation packages
// import one another directly, downwards (knowledge base → reasoner →
// transducers → core → sessions → runs → server), and the REST service is
// internal/server embedded by cmd/vada-server.
package vada

import (
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/extract"
	"vada/internal/kb"
	"vada/internal/mcda"
	"vada/internal/persist"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/transducer"
	"vada/internal/vadalog"
)

// ---- the system ----------------------------------------------------------

// Wrangler is the VADA system: knowledge base, reasoner, transducer
// registry and orchestrator behind the pay-as-you-go API.
type Wrangler = core.Wrangler

// New creates a Wrangler with the standard transducer suite. The two
// functional options below are all a caller may vary; every other setting
// is a constant of the suite.
func New(opts ...core.Option) *Wrangler { return core.NewWrangler(opts...) }

// Functional options for New and BuildScenarioWrangler.
var (
	WithMinCoverage = core.WithMinCoverage
	WithNetwork     = core.WithNetwork
)

// ---- relational model -----------------------------------------------------

// Relations (a schema plus tuples of typed scalar values) are the substrate
// all transducers exchange; ReadCSV infers or checks a schema.
var (
	NewSchema   = relation.NewSchema
	NewRelation = relation.New
	NewTuple    = relation.NewTuple
	ReadCSV     = relation.ReadCSV
)

// ---- knowledge base and reasoner -------------------------------------------

// KB is the knowledge base every transducer reads and writes; MapEDB is the
// simplest extensional database the reasoner accepts, a map from predicate
// to facts.
type (
	KB     = kb.KB
	MapEDB = vadalog.MapEDB
)

// Reasoner construction and parsing.
var (
	NewEngine      = vadalog.NewEngine
	ParseVadalog   = vadalog.Parse
	ParseQuery     = vadalog.ParseQuery
	IsLabelledNull = vadalog.IsLabelledNull
)

// ---- transducer framework ---------------------------------------------------

// TransducerFunc, Dependency and Report let applications extend the
// wrangling process with their own components (§4 of the paper);
// PreferNetwork is a network transducer that favours name prefixes.
type (
	TransducerFunc = transducer.Func
	Dependency     = transducer.Dependency
	Report         = transducer.Report
	PreferNetwork  = transducer.PreferNetwork
)

// Network-transducer construction, the generic network's activity order,
// and trace rendering.
var (
	NewGenericNetwork    = transducer.NewGenericNetwork
	DefaultActivityOrder = transducer.DefaultActivityOrder
	TraceString          = transducer.TraceString
)

// ---- user context (MCDA) ----------------------------------------------------

// UserContext carries pairwise priorities; Criterion identifies a quality
// feature of the result.
type (
	UserContext = mcda.Model
	Criterion   = mcda.Criterion
)

// VeryStrongly is one step of the paper's verbal importance scale (Figure
// 2(d)).
const VeryStrongly = mcda.VeryStrongly

// NewUserContext starts an empty priority model.
var NewUserContext = mcda.NewModel

// ---- web extraction ------------------------------------------------------------

// Extraction entry points for registering deep-web sources, with the
// demonstration portal template.
var (
	GeneratePages        = extract.GeneratePages
	InduceWrapper        = extract.InduceWrapper
	BootstrapAnnotations = extract.BootstrapAnnotations
	RightmoveTemplate    = extract.RightmoveTemplate
)

// ---- demonstration scenario ------------------------------------------------------

// ScenarioConfig controls generation of the paper's real-estate
// demonstration data; StageScore reports one step of the four-step
// demonstration.
type (
	ScenarioConfig = datagen.Config
	StageScore     = core.StageScore
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

// ---- sessions -------------------------------------------------------------

// A session is one pay-as-you-go wrangling conversation: it wraps one
// Wrangler, serialises its runs and records a SessionEvent per completed
// stage. StageRequest is the uniform wire form of a stage invocation and
// Plan an ordered list of them executed as one cancellable run.
type (
	SessionEvent = session.Event
	StageRequest = session.StageRequest
	Plan         = session.Plan
)

// Names of the four paper stages, and the subscriber-channel event type
// that carries run progress rather than a completed stage.
const (
	StageBootstrap   = session.StageBootstrap
	StageDataContext = session.StageDataContext
	StageFeedback    = session.StageFeedback
	StageUserContext = session.StageUserContext
	EventTransition  = session.EventTransition
)

// Session-manager construction and session options.
var (
	NewSessionManager = session.NewManager
	WithSessionName   = session.WithName
	WithScenario      = session.WithScenario
)

// Session persistence: stream a session as a versioned, checksummed
// snapshot envelope, decode one, and restore it into a manager and engine.
var (
	ExportSession       = persist.ExportSession
	ReadSessionSnapshot = persist.ReadSessionSnapshot
	RestoreSessionInto  = persist.RestoreInto
)

// ---- async runs ------------------------------------------------------------

// Run is one asynchronous stage (or plan) execution on the run engine:
// queued → running → succeeded | failed | cancelled. Runs of one session
// execute FIFO; runs of independent sessions proceed in parallel.
type Run = runs.Run

// Terminal run states.
const (
	RunSucceeded = runs.StateSucceeded
	RunFailed    = runs.StateFailed
	RunCancelled = runs.StateCancelled
)

// Run-engine construction and configuration.
var (
	NewRunEngine   = runs.New
	WithRunWorkers = runs.WithWorkers
	WithRunNotify  = runs.WithNotify
)

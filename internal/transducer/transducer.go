// Package transducer implements the architectural core of VADA (Figure 1):
// transducers — components whose input dependencies are declared as Vadalog
// queries over the knowledge base — plus the network transducers that choose
// among ready transducers, and the orchestrator that runs the whole ensemble
// to quiescence while recording a browsable trace.
//
// The key property reproduced from the paper (§2.3–2.4): transducers never
// call one another. Each declares *what data it needs*; it becomes available
// for execution when that data is present in the knowledge base, and the
// network transducer supplements the data dependencies with the decision
// making that determines execution order.
//
// "The data it needs" is held to the letter. The knowledge base versions
// every predicate and relation on its own and records what a dependency
// query and a transducer body read while they run; the orchestrator keeps
// that input set per transducer and executes a ready transducer only when a
// key of it has moved since the transducer last executed. A write therefore
// re-runs the transducers that read what was written, not the whole suite.
// A Dependency is under the same contract as a body — a function of what it
// reads — so its answer is kept too, and asked again only when a key its
// evaluation read has moved.
// The orchestrator that executes every ready transducer survives as the
// differential reference in reference_test.go: same changing steps, same
// order, byte-identical knowledge base after every stage.
package transducer

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vada/internal/kb"
	"vada/internal/vadalog"
)

// Dependency declares when a transducer is able to run: a Vadalog query
// (with optional auxiliary rules) over the knowledge-base facts, plus an
// optional Go-level guard for conditions the fact store cannot express.
type Dependency struct {
	// Program holds optional auxiliary Vadalog rules for the query.
	Program string
	// Query is the input-dependency query; the dependency is satisfied when
	// the query has at least one answer over the KB facts. An empty query is
	// always satisfied.
	Query string
	// Guard, when non-nil, must also return true for the dependency to be
	// satisfied.
	Guard func(k *kb.KB) bool
}

// Satisfied evaluates the dependency against the knowledge base.
func (d Dependency) Satisfied(k *kb.KB, engine *vadalog.Engine) (bool, error) {
	if d.Query != "" {
		ok, err := engine.Ask(d.Program, d.Query, k)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	if d.Guard != nil && !d.Guard(k) {
		return false, nil
	}
	return true, nil
}

// Report summarises one transducer execution for the trace.
type Report struct {
	// FactsAsserted counts new facts the run added.
	FactsAsserted int
	// FactsRetracted counts facts the run removed.
	FactsRetracted int
	// RelationsWritten lists bulk relations the run (re)wrote.
	RelationsWritten []string
	// Notes carries human-readable detail for the browsable trace.
	Notes []string
}

// Changed reports whether the run modified the knowledge base.
func (r Report) Changed() bool {
	return r.FactsAsserted > 0 || r.FactsRetracted > 0 || len(r.RelationsWritten) > 0
}

// Transducer is one wrangling component.
type Transducer interface {
	// Name uniquely identifies the transducer instance.
	Name() string
	// Activity is the functionality class ("extraction", "matching",
	// "mapping", "quality", "repair", "selection", "fusion", "feedback").
	Activity() string
	// Dependency declares the input dependency.
	Dependency() Dependency
	// Run executes the transducer against the knowledge base.
	Run(ctx context.Context, k *kb.KB) (Report, error)
}

// Func is a convenience Transducer built from fields and a closure.
type Func struct {
	// TName is the transducer name.
	TName string
	// TActivity is the activity class.
	TActivity string
	// Dep is the input dependency.
	Dep Dependency
	// RunFn is the execution body.
	RunFn func(ctx context.Context, k *kb.KB) (Report, error)
}

// Name implements Transducer.
func (f *Func) Name() string { return f.TName }

// Activity implements Transducer.
func (f *Func) Activity() string { return f.TActivity }

// Dependency implements Transducer.
func (f *Func) Dependency() Dependency { return f.Dep }

// Run implements Transducer.
func (f *Func) Run(ctx context.Context, k *kb.KB) (Report, error) { return f.RunFn(ctx, k) }

// Registry holds the registered transducers; the architecture is extensible
// — "additional transducers can be added at any time" (§2.3).
type Registry struct {
	transducers []Transducer
	byName      map[string]Transducer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Transducer{}}
}

// Register adds a transducer; duplicate names are an error.
func (r *Registry) Register(t Transducer) error {
	if _, dup := r.byName[t.Name()]; dup {
		return fmt.Errorf("transducer: duplicate name %q", t.Name())
	}
	r.byName[t.Name()] = t
	r.transducers = append(r.transducers, t)
	return nil
}

// MustRegister registers and panics on duplicates (for wiring code).
func (r *Registry) MustRegister(ts ...Transducer) {
	for _, t := range ts {
		if err := r.Register(t); err != nil {
			panic(err)
		}
	}
}

// All returns a copy of the transducers in registration order.
func (r *Registry) All() []Transducer { return append([]Transducer(nil), r.transducers...) }

// Step is one orchestration step in the trace.
type Step struct {
	// Seq is the step number (1-based), counted over the orchestrator's
	// lifetime — not an index into the retained trace.
	Seq int
	// Transducer and Activity identify what ran.
	Transducer, Activity string
	// Ready lists all transducers that were ready when this one was chosen
	// — making the network transducer's decisions inspectable.
	Ready []string
	// VersionBefore and VersionAfter bracket the KB version.
	VersionBefore, VersionAfter uint64
	// Report is the transducer's own account.
	Report Report
	// Err records a failed run (the orchestrator continues).
	Err error
	// Duration is the wall-clock run time.
	Duration time.Duration
	// Skipped is set on the last step of a RunToQuiescence call: the
	// transducers that call found ready and picked but did not execute,
	// because nothing they read on their last execution had moved — one
	// entry per skip, in order, so a name can repeat.
	Skipped []string
}

// NetworkTransducer selects which ready transducer runs next (§2.4). It may
// be generic (phase ordering) or specific; returning nil defers to
// quiescence.
type NetworkTransducer interface {
	// Name identifies the policy.
	Name() string
	// Select picks the next transducer among the ready ones.
	Select(ready []Transducer, k *kb.KB, history []Step) Transducer
}

// GenericNetwork is the paper's example of a generic network transducer: it
// orders activities by a configured phase ranking ("data extraction before
// mapping"), breaking ties by registration order.
type GenericNetwork struct {
	rank map[string]int
}

// DefaultActivityOrder is the phase ordering used by the generic network
// transducer, mirroring the wrangling lifecycle.
var DefaultActivityOrder = []string{
	"extraction", "feedback", "matching", "quality-rules", "mapping",
	"execution", "repair", "quality", "selection", "fusion",
}

// NewGenericNetwork builds a GenericNetwork with the given activity order
// (earlier = higher priority). Unknown activities rank last.
func NewGenericNetwork(order ...string) *GenericNetwork {
	if len(order) == 0 {
		order = DefaultActivityOrder
	}
	rank := make(map[string]int, len(order))
	for i, a := range order {
		rank[a] = i
	}
	return &GenericNetwork{rank: rank}
}

// Name implements NetworkTransducer.
func (g *GenericNetwork) Name() string { return "generic-network" }

// Select implements NetworkTransducer: the ready transducer with the
// earliest activity phase wins; ties go to registration order (the order of
// the ready slice).
func (g *GenericNetwork) Select(ready []Transducer, _ *kb.KB, _ []Step) Transducer {
	var best Transducer
	bestRank := int(^uint(0) >> 1)
	for _, t := range ready {
		r, ok := g.rank[t.Activity()]
		if !ok {
			r = len(g.rank) + 1
		}
		if r < bestRank {
			best, bestRank = t, r
		}
	}
	return best
}

// PreferNetwork wraps another network transducer, preferring transducers
// whose name matches one of the given prefixes — the paper's example of a
// specific policy ("prefer instance level matchers to schema level
// matchers").
type PreferNetwork struct {
	// Inner is the fallback policy.
	Inner NetworkTransducer
	// Prefixes are matched against transducer names, in priority order.
	Prefixes []string
}

// Name implements NetworkTransducer.
func (p *PreferNetwork) Name() string { return "prefer(" + strings.Join(p.Prefixes, ",") + ")" }

// Select implements NetworkTransducer.
func (p *PreferNetwork) Select(ready []Transducer, k *kb.KB, hist []Step) Transducer {
	for _, pref := range p.Prefixes {
		for _, t := range ready {
			if strings.HasPrefix(t.Name(), pref) {
				return t
			}
		}
	}
	return p.Inner.Select(ready, k, hist)
}

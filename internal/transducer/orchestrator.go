package transducer

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"vada/internal/kb"
	"vada/internal/vadalog"
)

// TraceCap is how many of the most recent steps an orchestrator keeps for
// Trace and the network transducer's history: a long-lived session takes
// its ten-thousandth stage with the memory of its first few hundred.
const TraceCap = 1024

// Orchestrator runs registered transducers to quiescence: while any
// transducer's input dependency is satisfied *and* the knowledge base has
// changed since that transducer last ran, the network transducer picks one
// and the orchestrator executes it. When no transducer is eligible, the
// system is quiescent — the dynamic, data-driven orchestration of §2.4.
type Orchestrator struct {
	// KB is the shared knowledge base.
	KB *kb.KB
	// Registry holds the transducers.
	Registry *Registry
	// Network decides among ready transducers.
	Network NetworkTransducer
	// Engine evaluates dependency queries.
	Engine *vadalog.Engine
	// MaxSteps guards against livelock from non-idempotent transducers: it
	// bounds the steps of one RunToQuiescence call, not of the
	// orchestrator's lifetime.
	MaxSteps int

	lastRun map[string]uint64 // transducer name -> KB version at last run
	// trace holds the last TraceCap steps (and up to as many older ones
	// awaiting the next trim); seq counts every step ever taken.
	trace []Step
	seq   int
}

// NewOrchestrator wires an orchestrator with defaults (generic network,
// fresh engine, 1000-step guard).
func NewOrchestrator(k *kb.KB, reg *Registry, opts ...func(*Orchestrator)) *Orchestrator {
	o := &Orchestrator{
		KB:       k,
		Registry: reg,
		Network:  NewGenericNetwork(),
		Engine:   vadalog.NewEngine(),
		MaxSteps: 1000,
		lastRun:  map[string]uint64{},
	}
	for _, opt := range opts {
		opt(o)
	}
	return o
}

// WithNetwork overrides the network transducer.
func WithNetwork(n NetworkTransducer) func(*Orchestrator) {
	return func(o *Orchestrator) { o.Network = n }
}

// WithMaxSteps overrides the step guard.
func WithMaxSteps(n int) func(*Orchestrator) {
	return func(o *Orchestrator) { o.MaxSteps = n }
}

// Eligible returns the transducers whose dependencies are satisfied and for
// which the KB has changed since their last run. The eligibility-by-version
// rule is what gives the run loop a fixpoint: a transducer that runs without
// changing anything will not run again until new information arrives.
func (o *Orchestrator) Eligible() ([]Transducer, error) {
	version := o.KB.Version()
	var out []Transducer
	for _, t := range o.Registry.All() {
		last, ran := o.lastRun[t.Name()]
		if ran && version <= last {
			continue
		}
		ok, err := t.Dependency().Satisfied(o.KB, o.Engine)
		if err != nil {
			return nil, fmt.Errorf("transducer %s: dependency: %w", t.Name(), err)
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// RunToQuiescence drives the system until no transducer is eligible, the
// context is cancelled, or this call has taken MaxSteps steps. Individual transducer
// failures are recorded in the trace and do not stop orchestration (the
// failing transducer is not retried until new information arrives).
func (o *Orchestrator) RunToQuiescence(ctx context.Context) ([]Step, error) {
	var steps []Step
	for len(steps) < o.MaxSteps {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		ready, err := o.Eligible()
		if err != nil {
			return steps, err
		}
		if len(ready) == 0 {
			return steps, nil
		}
		pick := o.Network.Select(ready, o.KB, o.recent())
		if pick == nil {
			return steps, nil
		}
		step := o.runOne(ctx, pick, ready)
		if len(o.trace) == 2*TraceCap {
			o.trace = append(o.trace[:0], o.trace[TraceCap:]...)
		}
		o.trace = append(o.trace, step)
		steps = append(steps, step)
	}
	return steps, fmt.Errorf("transducer: orchestration exceeded %d steps without quiescing", o.MaxSteps)
}

func (o *Orchestrator) runOne(ctx context.Context, t Transducer, ready []Transducer) Step {
	readyNames := make([]string, len(ready))
	for i, r := range ready {
		readyNames[i] = r.Name()
	}
	sort.Strings(readyNames)
	o.seq++
	step := Step{
		Seq:           o.seq,
		Transducer:    t.Name(),
		Activity:      t.Activity(),
		Ready:         readyNames,
		VersionBefore: o.KB.Version(),
	}
	start := time.Now()
	report, err := t.Run(ctx, o.KB)
	step.Duration = time.Since(start)
	step.Report = report
	step.Err = err
	step.VersionAfter = o.KB.Version()
	o.lastRun[t.Name()] = step.VersionAfter
	return step
}

// recent is the retained tail of the trace: at most TraceCap steps.
func (o *Orchestrator) recent() []Step {
	return o.trace[max(0, len(o.trace)-TraceCap):]
}

// Trace returns the most recent steps, at most TraceCap of them, across
// RunToQuiescence calls (context changes between calls re-trigger dependent
// transducers). Step.Seq keeps counting from the first step ever taken, so
// a gap before the first returned step says how many were dropped.
func (o *Orchestrator) Trace() []Step { return append([]Step(nil), o.recent()...) }

// ResetEligibility forgets last-run versions, forcing every transducer with
// satisfied dependencies to run again. Useful in tests and for "replay"
// demonstrations.
func (o *Orchestrator) ResetEligibility() { o.lastRun = map[string]uint64{} }

// WriteTrace renders the browsable trace the demonstration promises (§3):
// which transducers were orchestrated, what was ready, what each did.
func WriteTrace(w io.Writer, steps []Step) {
	for _, s := range steps {
		status := "ok"
		if s.Err != nil {
			status = "ERROR: " + s.Err.Error()
		} else if !s.Report.Changed() {
			status = "no change"
		}
		fmt.Fprintf(w, "#%d %-28s [%-12s] v%d→v%d  %s\n",
			s.Seq, s.Transducer, s.Activity, s.VersionBefore, s.VersionAfter, status)
		fmt.Fprintf(w, "    ready: %s\n", strings.Join(s.Ready, ", "))
		if s.Report.FactsAsserted+s.Report.FactsRetracted > 0 {
			fmt.Fprintf(w, "    facts: +%d −%d\n", s.Report.FactsAsserted, s.Report.FactsRetracted)
		}
		if len(s.Report.RelationsWritten) > 0 {
			fmt.Fprintf(w, "    wrote: %s\n", strings.Join(s.Report.RelationsWritten, ", "))
		}
		for _, n := range s.Report.Notes {
			fmt.Fprintf(w, "    note:  %s\n", n)
		}
	}
}

// TraceString renders the trace to a string.
func TraceString(steps []Step) string {
	var b strings.Builder
	WriteTrace(&b, steps)
	return b.String()
}

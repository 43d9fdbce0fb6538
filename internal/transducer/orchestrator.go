package transducer

import (
	"context"
	"fmt"
	"io"
	"slices"
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
// changed since that transducer last ran, the network transducer picks one;
// the orchestrator executes it if something it read on its last execution
// has moved since, and otherwise drops it from the ready set unrun. When no
// transducer is left, the system is quiescent — the dynamic, data-driven
// orchestration of §2.4, with "the data it needs" taken literally.
//
// What a transducer reads is observed, not declared: its dependency query
// and its body are handed a recording handle on the knowledge base
// (kb.Recording), so any Transducer gets an input set with nothing to
// implement, and nobody else's reads end up in it. The contract this puts a
// dependency and a body under: what one answers and the other does must be a
// function of what it reads from the knowledge base it is handed. State
// either closes over is invisible here (as it always was between two KB
// writes); state that is not facts or relations is handed over as a value of
// the knowledge base instead (KB.PutValue, and Value on the handle), where it
// is read and moves like everything else. So a dependency's answer is kept,
// and not asked again until a key its evaluation read moves.
type Orchestrator struct {
	// KB is the shared knowledge base.
	KB *kb.KB
	// Registry holds the transducers.
	Registry *Registry
	// Network decides among ready transducers.
	Network NetworkTransducer
	// engine evaluates dependency queries.
	engine *vadalog.Engine
	// stepGuard is maxSteps; the package's tests lower it.
	stepGuard int

	lastRun map[string]uint64 // transducer name -> KB version at last run or skip
	// inputs holds what each transducer read the last time it executed. A
	// transducer absent from inputs has never executed here (fresh or
	// restored session): everything has moved for it.
	inputs map[string]inputSet
	// deps holds each transducer's last dependency answer, with what its
	// evaluation read and the clock before it read; the answer stands until
	// one of those keys moves. An evaluation that failed leaves none.
	deps map[string]depAnswer
	// parsed holds each transducer's dependency, parsed at its first check.
	// Unlike the answers it survives ResetEligibility: a text's parse does
	// not depend on the knowledge base.
	parsed map[string]*parsedDependency
	// trace holds the last TraceCap steps (and up to as many older ones
	// awaiting the next trim); seq counts every step ever taken.
	trace []Step
	seq   int
}

// inputSet is what one execution of a transducer read, and when: the keys
// its dependency and its body read, which have moved if written after the
// body returned (at), so the body's own writes do not count — as a
// transducer's own writes never re-triggered it.
type inputSet struct {
	keys []kb.Key
	at   uint64
}

type depAnswer struct {
	satisfied bool
	read      inputSet
}

// InputDeclarer is an optional extension of Transducer. Inputs receives the
// keys recorded during the execution that just finished (dependency and
// body) and returns the transducer's input set: the recorded keys minus any
// the body reads only to rewrite them from its other inputs.
type InputDeclarer interface {
	Inputs(read []kb.Key) []kb.Key
}

// maxSteps guards against livelock from non-idempotent transducers: it
// bounds the steps one RunToQuiescence call executes, not the orchestrator's
// lifetime, and no stage of the standard suite comes near it. Skips are not
// counted and cannot loop: a skipped transducer leaves the ready set until
// the knowledge base moves, and within a run only an executed step moves it.
const maxSteps = 500

// NewOrchestrator wires an orchestrator with the generic network and a fresh
// engine. Network is a field: set it before the first run to differ.
func NewOrchestrator(k *kb.KB, reg *Registry) *Orchestrator {
	o := &Orchestrator{
		KB:        k,
		Registry:  reg,
		Network:   NewGenericNetwork(),
		engine:    vadalog.NewEngine(),
		stepGuard: maxSteps,
		parsed:    map[string]*parsedDependency{},
	}
	o.ResetEligibility()
	return o
}

// Eligible returns the transducers whose dependencies are satisfied and for
// which the KB has changed since their last run. The eligibility-by-version
// rule is what gives the run loop a fixpoint: a transducer that runs without
// changing anything will not run again until new information arrives.
// Whether the new information concerns a ready transducer is decided when
// the network transducer picks it (see RunToQuiescence), which keeps the
// picks in the order they always had. A dependency's answer stands until
// something its evaluation read moves.
func (o *Orchestrator) Eligible() ([]Transducer, error) {
	version := o.KB.Version()
	var out []Transducer
	for _, t := range o.Registry.transducers {
		last, ran := o.lastRun[t.Name()]
		if ran && version <= last {
			continue
		}
		dep, kept := o.deps[t.Name()]
		if !kept || o.KB.MovedSince(dep.read.keys, dep.read.at) {
			rec := o.KB.Recording()
			_, at := rec.Reads()
			p := o.parsed[t.Name()]
			if p == nil {
				p = &parsedDependency{}
				o.parsed[t.Name()] = p
			}
			ok, err := p.satisfied(t.Dependency(), rec, o.engine)
			if err != nil {
				delete(o.deps, t.Name())
				return nil, fmt.Errorf("transducer %s: dependency: %w", t.Name(), err)
			}
			keys, _ := rec.Reads()
			dep = depAnswer{satisfied: ok, read: inputSet{keys: keys, at: at}}
			o.deps[t.Name()] = dep
		}
		if dep.satisfied {
			out = append(out, t)
		}
	}
	return out, nil
}

// RunToQuiescence drives the system until no transducer is eligible, the
// context is cancelled, or this call has executed maxSteps steps. A ready
// transducer the network picks is executed only if it has never executed
// here or a key of its last input set has moved since; otherwise it is
// marked as run at the current version and dropped from the ready set, and
// the network picks again among the rest — exactly the steps of running it
// anyway, minus one that provably changes nothing. Skips take no Step; the
// last step of the call lists them. Individual transducer failures are
// recorded in the trace and do not stop orchestration (the failing
// transducer is not retried until new information arrives).
func (o *Orchestrator) RunToQuiescence(ctx context.Context) (steps []Step, err error) {
	var skipped []string
	defer func() {
		if n := len(steps); n > 0 && len(skipped) > 0 {
			steps[n-1].Skipped = skipped
			o.trace[len(o.trace)-1].Skipped = skipped
		}
	}()
	for len(steps) < o.stepGuard {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		ready, err := o.Eligible()
		if err != nil {
			return steps, err
		}
		names := make([]string, len(ready))
		for i, t := range ready {
			names[i] = t.Name()
		}
		sort.Strings(names)
		var pick Transducer
		for len(ready) > 0 {
			pick = o.Network.Select(ready, o.KB, o.recent())
			if pick == nil || o.inputsMoved(pick) {
				break
			}
			o.lastRun[pick.Name()] = o.KB.Version()
			skipped = append(skipped, pick.Name())
			// A copy: a network transducer may have kept the slice it was shown.
			ready = slices.DeleteFunc(slices.Clone(ready), func(t Transducer) bool { return t == pick })
			names = slices.DeleteFunc(names, func(n string) bool { return n == pick.Name() })
			pick = nil
		}
		if pick == nil {
			return steps, nil
		}
		step := o.runOne(ctx, pick, names)
		if len(o.trace) == 2*TraceCap {
			o.trace = append(o.trace[:0], o.trace[TraceCap:]...)
		}
		o.trace = append(o.trace, step)
		steps = append(steps, step)
	}
	return steps, fmt.Errorf("transducer: orchestration exceeded %d steps without quiescing", o.stepGuard)
}

// inputsMoved reports whether t must execute: it never has, or something it
// read last time has changed since.
func (o *Orchestrator) inputsMoved(t Transducer) bool {
	in, ran := o.inputs[t.Name()]
	return !ran || o.KB.MovedSince(in.keys, in.at)
}

// runOne executes t and records its step and input set. readyNames is the
// sorted ready set t was picked from; the step keeps it.
func (o *Orchestrator) runOne(ctx context.Context, t Transducer, readyNames []string) Step {
	o.seq++
	step := Step{
		Seq:           o.seq,
		Transducer:    t.Name(),
		Activity:      t.Activity(),
		Ready:         readyNames,
		VersionBefore: o.KB.Version(),
	}
	start := time.Now()
	rec := o.KB.Recording()
	report, err := t.Run(ctx, rec)
	read, at := rec.Reads()
	step.Duration = time.Since(start)
	step.Report = report
	step.Err = err
	step.VersionAfter = o.KB.Version()
	o.lastRun[t.Name()] = step.VersionAfter
	if err != nil {
		// A failed body may have stopped short of reading everything it
		// depends on: it gets no input set, so it is retried whenever it is
		// next picked, as a failing transducer always was.
		delete(o.inputs, t.Name())
		return step
	}
	// The dependency's reads join the body's, and an InputDeclarer has its
	// say.
	read = append(read, o.deps[t.Name()].read.keys...)
	if d, ok := t.(InputDeclarer); ok {
		read = d.Inputs(read)
	}
	kb.SortKeys(read)
	o.inputs[t.Name()] = inputSet{keys: slices.Compact(read), at: at}
	return step
}

// Inputs returns the input set of the named transducer's last execution —
// the keys whose movement makes it run again — sorted, or nil if it has not
// executed since the orchestrator was built or reset.
func (o *Orchestrator) Inputs(name string) []kb.Key {
	in, ok := o.inputs[name]
	if !ok {
		return nil
	}
	return append([]kb.Key{}, in.keys...)
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

// ResetEligibility forgets last-run versions, input sets and dependency
// answers, forcing every transducer with satisfied dependencies to run again.
// Useful in tests and for "replay" demonstrations.
func (o *Orchestrator) ResetEligibility() {
	o.lastRun = map[string]uint64{}
	o.inputs = map[string]inputSet{}
	o.deps = map[string]depAnswer{}
}

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
		if len(s.Skipped) > 0 {
			fmt.Fprintf(w, "skipped (inputs unchanged): %s\n", strings.Join(tally(s.Skipped), ", "))
		}
	}
}

// tally folds repeated names into "name ×n", keeping first-occurrence order.
func tally(names []string) []string {
	count := make(map[string]int, len(names))
	var order []string
	for _, n := range names {
		if count[n] == 0 {
			order = append(order, n)
		}
		count[n]++
	}
	for i, n := range order {
		if c := count[n]; c > 1 {
			order[i] = fmt.Sprintf("%s ×%d", n, c)
		}
	}
	return order
}

// TraceString renders the trace to a string.
func TraceString(steps []Step) string {
	var b strings.Builder
	WriteTrace(&b, steps)
	return b.String()
}

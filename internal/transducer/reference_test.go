package transducer

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vada/internal/kb"
	"vada/internal/vadalog"
)

// ReferenceOrchestrator is the orchestrator as it was before read-sets: a
// transducer is eligible when its dependency holds and the global KB
// version has moved since it last ran, and every eligible transducer the
// network picks is executed. It is slow (five steps in six change nothing)
// and obviously right, which makes it the differential reference for
// Orchestrator: the steps that change the knowledge base must be the same,
// in the same order, with the same knowledge base after each. Test-only.
type ReferenceOrchestrator struct {
	KB       *kb.KB
	Registry *Registry
	Network  NetworkTransducer
	Engine   *vadalog.Engine
	MaxSteps int

	lastRun map[string]uint64 // transducer name -> KB version at last run
	trace   []Step
}

// NewReferenceOrchestrator wires the reference over a knowledge base and
// registry, typically a Wrangler's own.
func NewReferenceOrchestrator(k *kb.KB, reg *Registry, network NetworkTransducer) *ReferenceOrchestrator {
	return &ReferenceOrchestrator{
		KB:       k,
		Registry: reg,
		Network:  network,
		Engine:   vadalog.NewEngine(),
		MaxSteps: maxSteps,
		lastRun:  map[string]uint64{},
	}
}

// Eligible is the coarse rule: dependency satisfied and the global version
// moved since the transducer's last run.
func (o *ReferenceOrchestrator) Eligible() ([]Transducer, error) {
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

// RunToQuiescence executes eligible transducers until none is left.
func (o *ReferenceOrchestrator) RunToQuiescence(ctx context.Context) ([]Step, error) {
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
		pick := o.Network.Select(ready, o.KB, o.trace)
		if pick == nil {
			return steps, nil
		}
		step := o.runOne(ctx, pick, ready)
		o.trace = append(o.trace, step)
		steps = append(steps, step)
	}
	return steps, fmt.Errorf("transducer: orchestration exceeded %d steps without quiescing", o.MaxSteps)
}

func (o *ReferenceOrchestrator) runOne(ctx context.Context, t Transducer, ready []Transducer) Step {
	readyNames := make([]string, len(ready))
	for i, r := range ready {
		readyNames[i] = r.Name()
	}
	sort.Strings(readyNames)
	step := Step{
		Seq:           len(o.trace) + 1,
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

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/transducer"
)

// phase is the outcome of one measured stretch of cycles.
type phase struct {
	wall     time.Duration
	cpu      time.Duration // CPU of the program under test
	loadCPU  time.Duration // CPU of the load generator (service mode)
	ops      int
	failed   int
	s        *samples
	spans    []Span
	cycles   []CycleRecord
	problems []string
	maxSteps int // largest cumulative step count of any one session
	maxLive  int // most sessions live at once (service mode)
}

func (p *phase) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// reactStages are the post-bootstrap stages whose wall is the reaction time.
var reactStages = []string{"data-context", "feedback", "user-context", "feedback-batch", "ingest"}

// transducerLayer maps the standard suite's transducer names onto the
// per-layer metric each one's busy time is reported under.
var transducerLayer = map[string]string{
	"web-extraction":        "extract.web_extraction_ms",
	"schema-matching":       "match.schema_ms",
	"instance-matching":     "match.instance_ms",
	"mapping-generation":    "mapping.generate_ms",
	"mapping-execution":     "mapping.execute_ms",
	"cfd-learning":          "cfd.learn_ms",
	"cfd-repair":            "cfd.repair_ms",
	"quality-assessment":    "quality.assess_ms",
	"mapping-selection":     "mcda.select_ms",
	"duplicate-fusion":      "fusion.fuse_ms",
	"feedback-assimilation": "feedback.assimilate_ms",
}

// libraryCycle runs one pay-as-you-go conversation against a fresh Wrangler
// from one goroutine, the way a user of the Go API drives it.
func libraryCycle(ctx context.Context, p params, sc *datagen.Scenario, index int, ph *phase, tr *tracer) error {
	seed, n := sc.Config.Seed, sc.Config.NProperties
	rec := CycleRecord{Index: index, Seed: seed, N: n}
	trace := rec.key()
	cycle := tr.open(0, trace, "cycle")
	defer func() { tr.close(cycle, map[string]any{"seed": seed, "n": n}) }()

	t0 := time.Now()
	build := tr.open(cycle, trace, "core.build")
	w := core.BuildScenarioWrangler(sc)
	tr.close(build, nil)
	ph.s.observe("core.build", msSince(t0))

	stage := func(name string, action func()) error {
		if rec.Steps > stepBudget {
			ph.s.add("stages_skipped", 1)
			return nil
		}
		ph.ops++
		op := tr.open(cycle, trace, "op:"+name)
		t0 := time.Now()
		if action != nil {
			action()
		}
		runStart := tr.now()
		steps, err := w.Run(ctx)
		runEnd := tr.now()
		ms := msSince(t0)
		ph.s.observe("stage:"+name, ms)
		ph.s.observe(kindKey(name, n), ms)
		if err != nil {
			tr.close(op, nil)
			ph.failed++
			return fmt.Errorf("%s %s: %w", trace, name, err)
		}
		recordSteps(ph.s, steps)
		if tr != nil {
			run := tr.add(op, trace, "core.stage", runStart, runEnd, map[string]any{"stage": name, "steps": len(steps)})
			at := runStart
			for _, st := range steps {
				tr.add(run, trace, "transducer:"+st.Transducer, at, at+int64(st.Duration),
					map[string]any{"changed": st.VersionAfter != st.VersionBefore})
				at += int64(st.Duration)
			}
		}
		tr.close(op, nil)
		rec.Steps += len(steps)
		// The page a user looks at after every stage: the fastest of three
		// reads, because right after a stage the collector is still busy
		// with the stage's garbage and a single read mostly times that.
		best := 0.0
		for i := 0; i < 3; i++ {
			t0 = time.Now()
			if err := libraryRead(w); err != nil {
				return fmt.Errorf("%s read after %s: %w", trace, name, err)
			}
			if ms := msSince(t0); i == 0 || ms < best {
				best = ms
			}
		}
		ph.s.observe("read:result", best)
		return nil
	}

	if err := stage("bootstrap", nil); err != nil {
		return err
	}
	if err := stage("data-context", func() { w.AddDataContext(sc.AddressRef) }); err != nil {
		return err
	}
	for r := 0; r < p.feedbackRounds; r++ {
		// Reading the result and annotating it is the user's time, not the
		// stage's: only assimilating the annotations is timed.
		items := core.OracleFeedback(sc, w.Result(), p.feedbackBudget, seed+int64(r)+1)
		if err := stage("feedback", func() { w.AddFeedback(items...) }); err != nil {
			return err
		}
	}
	for _, name := range p.userContexts {
		model, err := core.UserContextByName(name)
		if err != nil {
			return err
		}
		if err := stage("user-context", func() { w.SetUserContext(model) }); err != nil {
			return err
		}
	}

	res := w.ResultClean()
	if res == nil || res.Cardinality() == 0 {
		return fmt.Errorf("%s: empty result", trace)
	}
	csv, err := renderCSV(res)
	if err != nil {
		return err
	}
	rec.Digest = digest(csv)
	rec.F1 = sc.Oracle.ScoreResult(res).F1
	ph.cycles = append(ph.cycles, rec)
	ph.maxSteps = max(ph.maxSteps, rec.Steps)
	return nil
}

// recordSteps folds one stage's orchestration steps into the totals the
// transducer metrics are computed from.
func recordSteps(s *samples, steps []transducer.Step) {
	s.add("stages", 1)
	s.add("steps", float64(len(steps)))
	for _, st := range steps {
		if st.VersionAfter == st.VersionBefore {
			s.add("nochange_steps", 1)
		}
		s.add("busy:"+st.Transducer, float64(st.Duration)/1e6)
		s.add("busy", float64(st.Duration)/1e6)
	}
}

// libraryRead does in-process what GET .../result?limit=100 does in the
// server: project away provenance, render the first hundred rows, encode.
func libraryRead(w *core.Wrangler) error {
	res := w.ResultClean()
	if res == nil {
		return fmt.Errorf("no result")
	}
	rows := make([]map[string]string, 0, 100)
	for i := 0; i < res.Cardinality() && i < 100; i++ {
		row := map[string]string{}
		for j, a := range res.Schema.Attrs {
			row[a.Name] = res.Tuples[i][j].String()
		}
		rows = append(rows, row)
	}
	_, err := json.Marshal(map[string]any{"total": res.Cardinality(), "rows": rows})
	return err
}

// libraryRun drives a library workload.
type libraryRun struct {
	cfg       runConfig
	p         params
	scenarios []*datagen.Scenario // one per cycle of the op list
}

// setup generates every cycle's inputs and runs one small warm-up
// conversation, so lazy initialisation and the first heap growth happen
// before timing starts.
func (l *libraryRun) setup() error {
	l.scenarios = make([]*datagen.Scenario, l.p.cycles)
	for i := range l.scenarios {
		l.scenarios[i] = scenario(l.p.sizes[i%len(l.p.sizes)], cycleSeed(l.cfg.seed, 0, i))
	}
	// The warm-up input is fixed, not seeded: it is set-up, not workload, and
	// two scenarios of one size differ up to 2× in work, which would make
	// setup_s a property of the seed.
	warm := scenario(max(l.p.sizes[0]/2, 20), 1)
	return libraryCycle(context.Background(), l.p, warm, 0, &phase{s: newSamples()}, nil)
}

func (l *libraryRun) undoSetup() {}

// runPhase runs cycles 0 … cycles-1.
func (l *libraryRun) runPhase(cycles int, traced bool) *phase {
	ph := &phase{s: newSamples()}
	var tr *tracer
	if traced {
		tr = newTracer(time.Now(), 0)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := selfCPU()
	start := time.Now()
	cal := calibrator{proc: l.cfg.kernel}
	for i := 0; i < cycles; i++ {
		cal.tick(ph.s, tr)
		if err := libraryCycle(context.Background(), l.p, l.scenarios[i], i, ph, tr); err != nil {
			ph.problem("%v", err)
		}
	}
	ph.wall = time.Since(start)
	ph.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&after)
	ph.s.add("alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	ph.s.add("mallocs", float64(after.Mallocs-before.Mallocs))
	ph.s.add("gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	if tr != nil {
		ph.spans = tr.spans
	}
	return ph
}

func (l *libraryRun) finish(*phase) {}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e6 }

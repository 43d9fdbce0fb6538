package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"vada"
)

// exhibit regenerates one exhibit of the paper's evaluation on the
// demonstration scenario. The output is a function of (n, seed, budget)
// alone — no timings — so a golden file pins it. Figure 2 and Figure 3 are
// -print-scenario and -run.
type exhibit struct {
	name string
	run  func(out io.Writer, n int, seed int64, budget int) error
}

var exhibits = []exhibit{
	{"table1", exhibitTable1},
	{"orchestration", exhibitOrchestration},
	{"costcurve", exhibitCostCurve},
	{"usercontext", exhibitUserContext},
	{"noisesweep", exhibitNoiseSweep},
}

// runExhibit runs the named exhibit, or every one under a banner for "all".
func runExhibit(out io.Writer, name string, n int, seed int64, budget int) error {
	ran := false
	for _, e := range exhibits {
		if name != "all" && name != e.name {
			continue
		}
		if name == "all" {
			fmt.Fprintf(out, "\n================ %s ================\n", e.name)
		}
		if err := e.run(out, n, seed, budget); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown exhibit %q (want %s)", name, exhibitNames())
	}
	return nil
}

// exhibitNames renders the accepted -exhibit values.
func exhibitNames() string {
	var b strings.Builder
	for _, e := range exhibits {
		b.WriteString(e.name + "|")
	}
	return b.String() + "all"
}

func scenarioConfig(n int, seed int64) vada.ScenarioConfig {
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = n
	cfg.Seed = seed
	return cfg
}

// exhibitTable1 is Table 1: transducer input dependencies become satisfied
// exactly when the paper says they should.
func exhibitTable1(out io.Writer, n int, seed int64, _ int) error {
	fmt.Fprintln(out, "E-T1  transducer input dependencies (paper Table 1)")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-14s %-24s %s\n", "activity", "transducer", "input dependency (Vadalog query)")
	for _, t := range vada.New().Registry().All() {
		q := t.Dependency().Query
		if q == "" {
			q = "(always)"
		}
		fmt.Fprintf(out, "%-14s %-24s %s\n", t.Activity(), t.Name(), q)
	}

	fmt.Fprintln(out, "\nreadiness progression on the scenario (eligible transducers per stage):")
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	w := vada.BuildScenarioWrangler(sc)
	ctx := context.Background()
	report := func(stage string) {
		var ready []string
		for _, t := range w.Registry().All() {
			if ok, err := t.Dependency().Satisfied(w.KB, vada.NewEngine()); err == nil && ok {
				ready = append(ready, t.Name())
			}
		}
		sort.Strings(ready)
		fmt.Fprintf(out, "  %-22s %s\n", stage+":", strings.Join(ready, ", "))
	}
	report("sources+target set")
	if _, err := w.Run(ctx); err != nil {
		return err
	}
	report("after bootstrap")
	w.AddDataContext(sc.AddressRef)
	report("after data context")
	if _, err := w.Run(ctx); err != nil {
		return err
	}
	w.AddFeedback(vada.OracleFeedback(sc, w.Result(), 50, seed)...)
	report("after feedback")
	_, err := w.Run(ctx)
	return err
}

// exhibitOrchestration is §3 goal iii: the browsable trace of dynamic
// orchestration, summarised per pay-as-you-go stage.
func exhibitOrchestration(out io.Writer, n int, seed int64, budget int) error {
	fmt.Fprintln(out, "E-D1  dynamic orchestration (paper §3 goal iii)")
	fmt.Fprintln(out)
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	w := vada.BuildScenarioWrangler(sc)
	stage := func(name string) error {
		steps, err := w.Run(context.Background())
		if err != nil {
			return err
		}
		acts := map[string]int{}
		for _, s := range steps {
			acts[s.Activity]++
		}
		var parts []string
		for _, a := range vada.DefaultActivityOrder {
			if acts[a] > 0 {
				parts = append(parts, fmt.Sprintf("%s×%d", a, acts[a]))
			}
		}
		fmt.Fprintf(out, "%-14s %3d steps: %s\n", name, len(steps), strings.Join(parts, " "))
		return nil
	}
	if err := stage("bootstrap"); err != nil {
		return err
	}
	w.AddDataContext(sc.AddressRef)
	if err := stage("data-context"); err != nil {
		return err
	}
	w.AddFeedback(vada.OracleFeedback(sc, w.Result(), budget, seed)...)
	if err := stage("feedback"); err != nil {
		return err
	}
	w.SetUserContext(vada.CrimeAnalysisUserContext())
	if err := stage("user-context"); err != nil {
		return err
	}
	fmt.Fprintln(out, "\nfull browsable trace (first 30 steps):")
	trace := w.Trace()
	if len(trace) > 30 {
		trace = trace[:30]
	}
	fmt.Fprint(out, vada.TraceString(trace))
	return nil
}

// payAsYouGo walks the four §3 steps through a session on the scenario,
// after tune adjusted its configuration: the automatic bootstrap, the
// scenario's reference data, budget oracle annotations and the crime-analysis
// user context. Each stage's event carries its score.
func payAsYouGo(n int, seed int64, budget int, tune func(*vada.ScenarioConfig)) (*vada.Session, error) {
	cfg := scenarioConfig(n, seed)
	if tune != nil {
		tune(&cfg)
	}
	sc := vada.GenerateScenario(cfg)
	sess := vada.NewSession("vada", vada.BuildScenarioWrangler(sc), vada.WithScenario(sc, 7))
	ctx := context.Background()
	if _, err := sess.Bootstrap(ctx); err != nil {
		return nil, err
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		return nil, err
	}
	if _, err := sess.AddFeedback(ctx, nil, budget); err != nil {
		return nil, err
	}
	if _, err := sess.SetUserContext(ctx, vada.CrimeAnalysisUserContext()); err != nil {
		return nil, err
	}
	return sess, nil
}

// scoredStages walks payAsYouGo and returns its stage events, failing on a
// stage that left no result to score: the exhibits below read the scores.
func scoredStages(n int, seed int64, budget int, tune func(*vada.ScenarioConfig)) ([]vada.SessionEvent, error) {
	sess, err := payAsYouGo(n, seed, budget, tune)
	if err != nil {
		return nil, err
	}
	events := sess.Events()
	for _, ev := range events {
		if ev.Score == nil {
			return nil, fmt.Errorf("%s: a scenario of %d properties left no result to score", ev.Stage, n)
		}
	}
	return events, nil
}

// exhibitCostCurve is the cost-effectiveness motivation of §1: user actions
// against result quality.
func exhibitCostCurve(out io.Writer, n int, seed int64, _ int) error {
	fmt.Fprintln(out, "E-A1  cost-effectiveness: feedback budget vs result quality (paper §1)")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%8s %8s %8s %10s\n", "budget", "F1", "val-acc", "compl(bed)")
	for _, budget := range []int{0, 25, 50, 100, 200} {
		stages, err := scoredStages(n, seed, budget, nil)
		if err != nil {
			return err
		}
		s := stages[2].Score // after the feedback stage
		fmt.Fprintf(out, "%8d %8.3f %8.3f %10.3f\n", budget, s.F1, s.ValueAccuracy, s.Completeness["bedrooms"])
	}
	fmt.Fprintln(out, "\nreading: quality rises with modest feedback effort and saturates —")
	fmt.Fprintln(out, "pay-as-you-go effort yields immediate returns (paper §4).")
	return nil
}

// exhibitUserContext is §2.2's crime-analysis vs size-analysis example:
// different user contexts select different mappings.
func exhibitUserContext(out io.Writer, n int, seed int64, _ int) error {
	fmt.Fprintln(out, "E-A2  user context drives mapping selection (paper §2.2)")
	fmt.Fprintln(out)
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	ctx := context.Background()
	for _, uc := range []struct {
		name  string
		model *vada.UserContext
	}{
		{"none (default)", nil},
		{"crime analysis (Fig 2d)", vada.CrimeAnalysisUserContext()},
		{"size analysis (§2.2 variant)", vada.SizeAnalysisUserContext()},
	} {
		w := vada.BuildScenarioWrangler(sc)
		w.AddDataContext(sc.AddressRef)
		if _, err := w.Run(ctx); err != nil {
			return err
		}
		if uc.model != nil {
			w.SetUserContext(uc.model)
			if _, err := w.Run(ctx); err != nil {
				return err
			}
		}
		fmt.Fprintf(out, "%-30s selected: %s\n", uc.name, strings.Join(w.SelectedMappings(), ", "))
		if uc.model != nil {
			for _, c := range uc.model.Comparisons() {
				fmt.Fprintf(out, "%-30s   stated: %s\n", "", c)
			}
		}
	}
	return nil
}

// exhibitNoiseSweep is a robustness extension beyond the paper's demo: how
// the pipeline degrades as source noise grows, and how much of the loss each
// pay-as-you-go step recovers.
func exhibitNoiseSweep(out io.Writer, n int, seed int64, budget int) error {
	fmt.Fprintln(out, "E-N1  robustness: pipeline quality vs source noise (extension)")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%7s %18s %18s %18s\n", "noise", "bootstrap F1", "data-context F1", "feedback val-acc")
	for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
		stages, err := scoredStages(n, seed, budget, func(c *vada.ScenarioConfig) {
			c.NullRate *= scale
			c.FormatNoiseRate *= scale
			c.BedroomErrorRate *= scale
			c.TypoRate *= scale
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%6.1fx %18.3f %18.3f %18.3f\n", scale,
			stages[0].Score.F1, stages[1].Score.F1, stages[2].Score.ValueAccuracy)
	}
	fmt.Fprintln(out, "\nreading: bootstrap quality decays with noise; the data-context and")
	fmt.Fprintln(out, "feedback steps recover most of it — the dirtier the sources, the more")
	fmt.Fprintln(out, "the pay-as-you-go machinery earns.")
	return nil
}

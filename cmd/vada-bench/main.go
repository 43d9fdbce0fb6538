// Command vada-bench regenerates every exhibit of the paper's evaluation
// (see DESIGN.md §3 and EXPERIMENTS.md):
//
//	vada-bench -exp payg          # E-F3: pay-as-you-go quality per step (§3, Figure 3)
//	vada-bench -exp table1        # E-T1: transducer input dependencies (Table 1)
//	vada-bench -exp orchestration # E-D1: dynamic orchestration trace (§3 goal iii)
//	vada-bench -exp costcurve     # E-A1: user effort vs result quality (§1 motivation)
//	vada-bench -exp usercontext   # E-A2: user contexts change selection (§2.2)
//	vada-bench -exp scenario      # E-F2: the demonstration scenario (Figure 2)
//	vada-bench -exp all           # everything
//
// Performance is measured elsewhere: the frozen benchmark in benchmark/ (see
// benchmark/README.md) drives the wrangling core and the real vada-server.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"vada"
	"vada/internal/transducer"
)

func main() {
	exp := flag.String("exp", "all", "experiment: payg|table1|orchestration|costcurve|usercontext|scenario|noisesweep|all")
	n := flag.Int("n", 400, "number of ground-truth properties")
	seed := flag.Int64("seed", 1, "scenario seed")
	budget := flag.Int("budget", 120, "feedback budget (payg)")
	flag.Parse()

	runners := map[string]func(int, int64, int) error{
		"payg":          runPayg,
		"table1":        runTable1,
		"orchestration": runOrchestration,
		"costcurve":     runCostCurve,
		"usercontext":   runUserContext,
		"scenario":      runScenario,
		"noisesweep":    runNoiseSweep,
	}
	names := []string{"scenario", "table1", "payg", "orchestration", "costcurve", "usercontext", "noisesweep"}
	if *exp != "all" {
		r, ok := runners[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		names = nil
		if err := r(*n, *seed, *budget); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, name := range names {
		fmt.Printf("\n================ %s ================\n", name)
		if err := runners[name](*n, *seed, *budget); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func scenarioConfig(n int, seed int64) vada.ScenarioConfig {
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = n
	cfg.Seed = seed
	return cfg
}

// runPayg is E-F3: the §3 demonstration steps with measured quality.
func runPayg(n int, seed int64, budget int) error {
	fmt.Println("E-F3  pay-as-you-go wrangling (paper §3, Figure 3)")
	fmt.Println("claim: the more information provided, the better the outcome")
	fmt.Println()
	cfg := vada.DefaultPayAsYouGoConfig()
	cfg.Scenario = scenarioConfig(n, seed)
	cfg.FeedbackBudget = budget
	_, _, stages, err := vada.RunPayAsYouGo(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Print(vada.FormatStages(stages))
	fmt.Println()
	fmt.Println("reading: bootstrap is automatic but of problematic quality (the paper's")
	fmt.Println("expectation); data context repairs identification (F1, completeness);")
	fmt.Println("feedback repairs asserted values (val-acc); user context steers selection.")
	return nil
}

// runTable1 is E-T1: transducer input dependencies become satisfied exactly
// when Table 1 says they should.
func runTable1(n int, seed int64, _ int) error {
	fmt.Println("E-T1  transducer input dependencies (paper Table 1)")
	fmt.Println()
	w := vada.New()
	fmt.Printf("%-14s %-24s %s\n", "activity", "transducer", "input dependency (Vadalog query)")
	for _, t := range w.Registry().All() {
		q := t.Dependency().Query
		if q == "" {
			q = "(always)"
		}
		fmt.Printf("%-14s %-24s %s\n", t.Activity(), t.Name(), q)
	}

	fmt.Println("\nreadiness progression on the scenario (eligible transducers per stage):")
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	w2 := vada.BuildScenarioWrangler(sc)
	ctx := context.Background()

	report := func(stage string) {
		var ready []string
		for _, t := range w2.Registry().All() {
			ok, err := t.Dependency().Satisfied(w2.KB, vada.NewEngine())
			if err == nil && ok {
				ready = append(ready, t.Name())
			}
		}
		sort.Strings(ready)
		fmt.Printf("  %-22s %s\n", stage+":", strings.Join(ready, ", "))
	}
	report("sources+target set")
	if _, err := w2.Run(ctx); err != nil {
		return err
	}
	report("after bootstrap")
	w2.AddDataContext(sc.AddressRef)
	report("after data context")
	if _, err := w2.Run(ctx); err != nil {
		return err
	}
	items := vada.OracleFeedback(sc, w2.Result(), 50, seed)
	w2.AddFeedback(items...)
	report("after feedback")
	_, err := w2.Run(ctx)
	return err
}

// runOrchestration is E-D1: the browsable trace of dynamic orchestration.
func runOrchestration(n int, seed int64, budget int) error {
	fmt.Println("E-D1  dynamic orchestration (paper §3 goal iii)")
	fmt.Println()
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	w := vada.BuildScenarioWrangler(sc)
	ctx := context.Background()

	stageSummary := func(stage string, steps []vada.Step) {
		acts := map[string]int{}
		for _, s := range steps {
			acts[s.Activity]++
		}
		var parts []string
		for _, a := range transducer.DefaultActivityOrder {
			if acts[a] > 0 {
				parts = append(parts, fmt.Sprintf("%s×%d", a, acts[a]))
			}
		}
		fmt.Printf("%-14s %3d steps: %s\n", stage, len(steps), strings.Join(parts, " "))
	}

	steps, err := w.Run(ctx)
	if err != nil {
		return err
	}
	stageSummary("bootstrap", steps)
	w.AddDataContext(sc.AddressRef)
	steps, err = w.Run(ctx)
	if err != nil {
		return err
	}
	stageSummary("data-context", steps)
	w.AddFeedback(vada.OracleFeedback(sc, w.Result(), budget, seed)...)
	steps, err = w.Run(ctx)
	if err != nil {
		return err
	}
	stageSummary("feedback", steps)
	w.SetUserContext(vada.CrimeAnalysisUserContext())
	steps, err = w.Run(ctx)
	if err != nil {
		return err
	}
	stageSummary("user-context", steps)

	fmt.Println("\nfull browsable trace (first 30 steps):")
	trace := w.Trace()
	if len(trace) > 30 {
		trace = trace[:30]
	}
	fmt.Print(vada.TraceString(trace))
	return nil
}

// runCostCurve is E-A1: user actions vs quality — the cost-effectiveness
// motivation of §1.
func runCostCurve(n int, seed int64, _ int) error {
	fmt.Println("E-A1  cost-effectiveness: feedback budget vs result quality (paper §1)")
	fmt.Println()
	fmt.Printf("%8s %8s %8s %10s\n", "budget", "F1", "val-acc", "compl(bed)")
	for _, budget := range []int{0, 25, 50, 100, 200} {
		cfg := vada.DefaultPayAsYouGoConfig()
		cfg.Scenario = scenarioConfig(n, seed)
		cfg.FeedbackBudget = budget
		_, _, stages, err := vada.RunPayAsYouGo(context.Background(), cfg)
		if err != nil {
			return err
		}
		s := stages[2].Score // after the feedback stage
		fmt.Printf("%8d %8.3f %8.3f %10.3f\n", budget, s.F1, s.ValueAccuracy, s.Completeness["bedrooms"])
	}
	fmt.Println("\nreading: quality rises with modest feedback effort and saturates —")
	fmt.Println("pay-as-you-go effort yields immediate returns (paper §4).")
	return nil
}

// runUserContext is E-A2: different user contexts select different mappings
// (§2.2's crime-analysis vs size-analysis example).
func runUserContext(n int, seed int64, _ int) error {
	fmt.Println("E-A2  user context drives mapping selection (paper §2.2)")
	fmt.Println()
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
		fmt.Printf("%-30s selected: %s\n", uc.name, strings.Join(w.SelectedMappings(), ", "))
		if uc.model != nil {
			for _, c := range uc.model.Comparisons() {
				fmt.Printf("%-30s   stated: %s\n", "", c)
			}
		}
	}
	return nil
}

// runScenario is E-F2: the demonstration scenario of Figure 2.
func runScenario(n int, seed int64, _ int) error {
	fmt.Println("E-F2  demonstration scenario (paper Figure 2)")
	fmt.Println()
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	fmt.Println("(a) Sources:")
	fmt.Println(headOf(sc.Rightmove, 4))
	fmt.Println(headOf(sc.OnTheMarket, 4))
	fmt.Println(headOf(sc.Deprivation, 4))
	fmt.Println("(b) Target schema:")
	fmt.Println("  " + vada.TargetSchema().String())
	fmt.Println()
	fmt.Println("(c) Data context:")
	fmt.Println(headOf(sc.AddressRef, 4))
	fmt.Println("(d) User context (crime analysis):")
	for _, c := range vada.CrimeAnalysisUserContext().Comparisons() {
		fmt.Println("  " + c.String())
	}
	return nil
}

// runNoiseSweep is a robustness extension beyond the paper's demo: how the
// full pipeline degrades as source noise grows, and how much of the loss
// each pay-as-you-go step recovers.
func runNoiseSweep(n int, seed int64, budget int) error {
	fmt.Println("E-N1  robustness: pipeline quality vs source noise (extension)")
	fmt.Println()
	fmt.Printf("%7s %18s %18s %18s\n", "noise", "bootstrap F1", "data-context F1", "feedback val-acc")
	for _, scale := range []float64{0.5, 1.0, 1.5, 2.0} {
		cfg := vada.DefaultPayAsYouGoConfig()
		cfg.Scenario = scenarioConfig(n, seed)
		cfg.Scenario.NullRate *= scale
		cfg.Scenario.FormatNoiseRate *= scale
		cfg.Scenario.BedroomErrorRate *= scale
		cfg.Scenario.TypoRate *= scale
		cfg.FeedbackBudget = budget
		_, _, stages, err := vada.RunPayAsYouGo(context.Background(), cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%6.1fx %18.3f %18.3f %18.3f\n", scale,
			stages[0].Score.F1, stages[1].Score.F1, stages[2].Score.ValueAccuracy)
	}
	fmt.Println("\nreading: bootstrap quality decays with noise; the data-context and")
	fmt.Println("feedback steps recover most of it — the dirtier the sources, the more")
	fmt.Println("the pay-as-you-go machinery earns.")
	return nil
}

func headOf(r *vada.Relation, k int) string {
	clone := r.Clone()
	if clone.Cardinality() > k {
		clone.Tuples = clone.Tuples[:k]
	}
	s := clone.String()
	return strings.TrimSuffix(s, "\n") + fmt.Sprintf("  … of %d\n", r.Cardinality())
}

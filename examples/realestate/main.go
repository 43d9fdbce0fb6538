// Realestate walks the full SIGMOD'17 demonstration (§3 of the paper) on
// the synthetic real-estate scenario through the session API: automatic
// bootstrapping, then data context, then feedback, then user context. Each
// stage returns a typed event carrying the orchestration effort and the
// oracle's assessment of the result — the same records the vada-server
// REST API serves per session. What it prints is pinned by
// testdata/stdout.golden.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"vada"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the demonstration to out.
func run(out io.Writer) error {
	ctx := context.Background()
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = 300
	sc := vada.GenerateScenario(cfg)

	fmt.Fprintf(out, "scenario: %d ground-truth properties; rightmove lists %d, onthemarket %d\n\n",
		sc.Truth.Cardinality(), sc.Rightmove.Cardinality(), sc.OnTheMarket.Cardinality())

	// One wrangling conversation = one session. The scenario attachment
	// gives the session ground truth to score against, default reference
	// data for step 2 and an oracle for step 3.
	sess := vada.NewSession("realestate", vada.BuildScenarioWrangler(sc),
		vada.WithSessionName("realestate-demo"), vada.WithScenario(sc, 7))
	w := sess.Wrangler()

	// ---- step 1: automatic bootstrapping --------------------------------
	ev, err := sess.Bootstrap(ctx)
	if err != nil {
		return err
	}
	report(out, "1. bootstrap", ev)
	fmt.Fprintln(out, "   (the outcome can be expected to be of problematic quality — §3)")

	// ---- step 2: data context --------------------------------------------
	ev, err = sess.AddDataContext(ctx, nil) // nil: the scenario's reference data
	if err != nil {
		return err
	}
	report(out, "2. +data context", ev)
	fmt.Fprintf(out, "   CFDs learned from reference data: %d, e.g. %s\n",
		len(w.CFDs()), w.CFDs()[0])

	// ---- step 3: feedback -------------------------------------------------
	ev, err = sess.AddFeedback(ctx, nil, 120) // nil items: ask the oracle
	if err != nil {
		return err
	}
	report(out, "3. +feedback", ev)
	fmt.Fprintln(out, "   (bedroom-area errors get caught here)")

	// ---- step 4: user context ----------------------------------------------
	ev, err = sess.SetUserContext(ctx, vada.CrimeAnalysisUserContext())
	if err != nil {
		return err
	}
	report(out, "4. +user context", ev)
	fmt.Fprintln(out, "   stated priorities:")
	for _, c := range vada.CrimeAnalysisUserContext().Comparisons() {
		fmt.Fprintln(out, "     "+c.String())
	}
	fmt.Fprintln(out, "   selected mappings:", w.SelectedMappings())

	fmt.Fprintf(out, "\nsession %q history: %d stages\n", sess.Name(), len(sess.Events()))
	res, err := sess.Result()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "final result sample:")
	if res.Cardinality() > 8 {
		res.Tuples = res.Tuples[:8]
	}
	fmt.Fprintln(out, res)
	return nil
}

func report(out io.Writer, stage string, ev vada.SessionEvent) {
	s := ev.Score
	fmt.Fprintf(out, "%-18s %3d orchestration steps  F1=%.3f  value-accuracy=%.3f  completeness(crimerank)=%.3f\n",
		stage, ev.Steps, s.F1, s.ValueAccuracy, s.Completeness["crimerank"])
}

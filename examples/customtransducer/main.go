// Customtransducer demonstrates the extensibility claims of §2.3/§4: adding
// a new component as a transducer (a price-statistics profiler written as a
// Vadalog-dependency-driven component) and influencing orchestration with a
// custom network transducer.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"vada"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's output to out.
func run(out io.Writer) error {
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = 200
	sc := vada.GenerateScenario(cfg)

	// A specific network transducer (paper §2.4: "prefer instance level
	// matchers to schema level matchers").
	w := vada.BuildScenarioWrangler(sc, vada.WithNetwork(&vada.PreferNetwork{
		Inner:    vada.NewGenericNetwork(),
		Prefixes: []string{"instance-"},
	}))

	// A custom transducer: its input dependency is a Vadalog query over the
	// knowledge base — it runs as soon as a wrangling result exists, with no
	// explicit wiring to the components that produce it.
	w.Registry().MustRegister(&vada.TransducerFunc{
		TName:     "price-profiler",
		TActivity: "quality",
		Dep:       vada.Dependency{Query: "?- md_result(N), N > 0."},
		RunFn: func(_ context.Context, k *vada.KB) (vada.Report, error) {
			rep := vada.Report{}
			res := k.Relation("result")
			if res == nil {
				return rep, nil
			}
			pi := res.Schema.AttrIndex("price")
			if pi < 0 {
				return rep, nil
			}
			lo, hi, sum, n := 0.0, 0.0, 0.0, 0
			for _, t := range res.Tuples {
				f, ok := t[pi].AsFloat()
				if !ok {
					continue
				}
				if n == 0 || f < lo {
					lo = f
				}
				if n == 0 || f > hi {
					hi = f
				}
				sum += f
				n++
			}
			if n > 0 {
				// Assert the profile into the KB for other transducers
				// (and the trace) to see.
				k.Assert("md_price_profile", vada.NewTuple(lo, hi, sum/float64(n), n))
				rep.FactsAsserted++
				rep.Notes = append(rep.Notes,
					fmt.Sprintf("price ∈ [%.0f, %.0f], mean %.0f over %d values", lo, hi, sum/float64(n), n))
			}
			return rep, nil
		},
	})

	w.AddDataContext(sc.AddressRef)
	if _, err := w.Run(context.Background()); err != nil {
		return err
	}

	fmt.Fprintln(out, "price profile facts in the KB:")
	for _, f := range w.KB.Facts("md_price_profile") {
		fmt.Fprintf(out, "  md_price_profile%v\n", f)
	}

	fmt.Fprintln(out, "\ntrace steps involving the custom transducer:")
	for _, s := range w.Trace() {
		if s.Transducer == "price-profiler" {
			fmt.Fprintf(out, "  #%d %s: %v\n", s.Seq, s.Transducer, s.Report.Notes)
		}
	}

	// What makes it run again: the orchestrator recorded what its dependency
	// query and its body read, and re-executes it only when one of those
	// keys moves.
	fmt.Fprintln(out, "\nits input set, as the orchestrator derived it:")
	lines := strings.Split(w.Architecture(), "\n")
	for i, line := range lines {
		if strings.Contains(line, "price-profiler") && i+1 < len(lines) {
			fmt.Fprintln(out, line)
			fmt.Fprintln(out, lines[i+1])
		}
	}

	fmt.Fprintln(out, "\nfirst matching steps (note instance matcher preference):")
	shown := 0
	for _, s := range w.Trace() {
		if s.Activity == "matching" && shown < 4 {
			fmt.Fprintf(out, "  #%d %s\n", s.Seq, s.Transducer)
			shown++
		}
	}
	return nil
}

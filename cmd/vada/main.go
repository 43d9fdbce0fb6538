// Command vada runs the VADA wrangling pipeline from the command line.
//
//	vada -print-architecture      # the component graph of Figure 1
//	vada -print-scenario          # the demonstration scenario of Figure 2
//	vada -run [-trace] [-csv]     # the four pay-as-you-go steps of §3 (Figure 3)
//	vada -exhibit table1|orchestration|costcurve|usercontext|noisesweep|all
//	                              # the remaining exhibits of the evaluation
//	vada -query 'program' -ask '?- q(X).'  # ad-hoc Vadalog over CSV EDB
//
// Exhibit output carries no timings; performance is measured by the frozen
// benchmark in benchmark/ (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vada"
)

func main() {
	printArch := flag.Bool("print-architecture", false, "print the architecture (Figure 1) and exit")
	printScenario := flag.Bool("print-scenario", false, "print the demonstration scenario (Figure 2) and exit")
	run := flag.Bool("run", false, "run the four pay-as-you-go steps on the scenario")
	trace := flag.Bool("trace", false, "with -run: print the full orchestration trace")
	csvOut := flag.Bool("csv", false, "with -run: print the final result as CSV")
	exhibit := flag.String("exhibit", "", "regenerate a paper exhibit: "+exhibitNames())
	n := flag.Int("n", 400, "scenario size (properties)")
	seed := flag.Int64("seed", 1, "scenario seed")
	budget := flag.Int("budget", 120, "feedback budget")
	program := flag.String("query", "", "Vadalog program text (with -ask)")
	ask := flag.String("ask", "", "Vadalog query to evaluate against -edb CSV files")
	edb := flag.String("edb", "", "comma-separated pred=file.csv pairs for -ask")
	flag.Parse()

	var err error
	switch {
	case *printArch:
		fmt.Print(vada.New().Architecture())
	case *printScenario:
		printScenarioTables(*n, *seed)
	case *ask != "":
		err = runQuery(*program, *ask, *edb)
	case *run:
		err = runPipeline(os.Stdout, *n, *seed, *budget, *trace, *csvOut)
	case *exhibit != "":
		err = runExhibit(os.Stdout, *exhibit, *n, *seed, *budget)
	default:
		flag.Usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func printScenarioTables(n int, seed int64) {
	sc := vada.GenerateScenario(scenarioConfig(n, seed))
	fmt.Println("Sources (Figure 2a):")
	fmt.Println(sc.Rightmove)
	fmt.Println(sc.OnTheMarket)
	fmt.Println(sc.Deprivation)
	fmt.Println("Target schema (Figure 2b):")
	fmt.Println("  " + vada.TargetSchema().String())
	fmt.Println("\nData context (Figure 2c):")
	fmt.Println(sc.AddressRef)
	fmt.Println("User context (Figure 2d):")
	for _, c := range vada.CrimeAnalysisUserContext().Comparisons() {
		fmt.Println("  " + c.String())
	}
}

func runPipeline(out io.Writer, n int, seed int64, budget int, trace, csvOut bool) error {
	sess, err := payAsYouGo(n, seed, budget, nil)
	if err != nil {
		return err
	}
	writeStages(out, sess.Events())
	if trace {
		fmt.Fprintln(out, "\norchestration trace:")
		fmt.Fprint(out, vada.TraceString(sess.Trace()))
	}
	if csvOut {
		res, err := sess.Result()
		if err != nil {
			return fmt.Errorf("-csv: %w", err)
		}
		fmt.Fprintln(out)
		return res.WriteCSV(out)
	}
	return nil
}

// writeStages renders stage events as an aligned table of their oracle
// scores. A stage that left no result to score shows "-" in each score
// column.
func writeStages(out io.Writer, events []vada.SessionEvent) {
	fmt.Fprintf(out, "%-14s %6s %6s %9s %7s %7s %9s %8s %10s %10s\n",
		"stage", "steps", "rows", "precision", "recall", "F1", "cell-acc", "val-acc", "compl(cr)", "compl(bed)")
	for _, ev := range events {
		fmt.Fprintf(out, "%-14s %6d", ev.Stage, ev.Steps)
		s := ev.Score
		if s == nil {
			fmt.Fprintf(out, " %6s %9s %7s %7s %9s %8s %10s %10s\n", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(out, " %6d %9.3f %7.3f %7.3f %9.3f %8.3f %10.3f %10.3f\n",
			s.Rows, s.AddressablePrecision, s.Recall, s.F1, s.CellAccuracy, s.ValueAccuracy,
			s.Completeness["crimerank"], s.Completeness["bedrooms"])
	}
}

func runQuery(program, ask, edbSpec string) error {
	edb := vada.MapEDB{}
	if edbSpec != "" {
		for _, pair := range strings.Split(edbSpec, ",") {
			pred, file, ok := strings.Cut(pair, "=")
			if !ok {
				return fmt.Errorf("bad -edb entry %q (want pred=file.csv)", pair)
			}
			f, err := os.Open(file)
			if err != nil {
				return err
			}
			rel, err := vada.ReadCSV(pred, f, nil)
			f.Close()
			if err != nil {
				return err
			}
			edb[pred] = rel.Tuples
		}
	}
	bindings, err := vada.NewEngine().Query(program, ask, edb)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		var parts []string
		for k, v := range b {
			parts = append(parts, fmt.Sprintf("%s=%v", k, v))
		}
		fmt.Println(strings.Join(parts, " "))
	}
	fmt.Printf("%d answers\n", len(bindings))
	return nil
}

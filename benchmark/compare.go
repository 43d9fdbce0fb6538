package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// reportSet is what `run --all` writes: every report of one pass.
type reportSet struct {
	Reports []*Report `json:"reports"`
}

// readReports loads a set file or a single report file.
func readReports(path string) ([]*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file struct {
		reportSet
		Report
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case len(file.Reports) > 0:
		return file.Reports, nil
	case file.Workload != "":
		return []*Report{&file.Report}, nil
	}
	return nil, fmt.Errorf("%s: neither a report nor a set of reports", path)
}

// side is one file's runs of one workload, reduced for comparison.
type side struct {
	version int
	inputs  []string // scale and seed of every run, sorted
	failed  int
	wrong   int                // runs that were not correct
	medians map[string]float64 // per metric; the median where a file holds several runs
}

// reduce groups reports by workload: bounded metrics from measured runs,
// per-layer metrics from traced runs.
func reduce(reports []*Report) map[string]*side {
	out := map[string]*side{}
	samples := map[string]map[string][]float64{}
	for _, rep := range reports {
		s := out[rep.Workload]
		if s == nil {
			s = &side{version: rep.WorkloadVersion, medians: map[string]float64{}}
			out[rep.Workload], samples[rep.Workload] = s, map[string][]float64{}
		}
		s.inputs = append(s.inputs, fmt.Sprintf("%s/seed %d/traced %v", rep.Scale, rep.Seed, rep.Traced))
		s.failed += rep.Failed
		if !rep.Correct {
			s.wrong++
		}
		for _, d := range catalog {
			if (d.class == perLayer) != rep.Traced {
				continue
			}
			if m, ok := rep.Metrics[d.name]; ok {
				samples[rep.Workload][d.name] = append(samples[rep.Workload][d.name], m.Value)
			}
		}
	}
	for w, s := range out {
		sort.Strings(s.inputs)
		for name, xs := range samples[w] {
			s.medians[name] = median(xs)
		}
	}
	return out
}

// cmdCompare prints one row per (workload, metric) present in both files and
// fails when B is worse than A by more than a metric's bound, when B failed
// more operations or was less often correct, or when the two files did not
// run the same op lists.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.json B.json")
	}
	ra, err := readReports(args[0])
	if err != nil {
		return err
	}
	rb, err := readReports(args[1])
	if err != nil {
		return err
	}
	sa, sb := reduce(ra), reduce(rb)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tdelta\tbound\tverdict")
	past := 0
	for _, w := range workloads {
		a, b := sa[w.name], sb[w.name]
		if a == nil || b == nil {
			continue
		}
		if a.version != b.version {
			return fmt.Errorf("%s: workload_version %d vs %d — different op lists do not compare", w.name, a.version, b.version)
		}
		if fmt.Sprint(a.inputs) != fmt.Sprint(b.inputs) {
			return fmt.Errorf("%s: A ran %v, B ran %v — different inputs do not compare", w.name, a.inputs, b.inputs)
		}
		if b.failed > a.failed || b.wrong > a.wrong {
			fmt.Fprintf(tw, "%s\tfailed ops / incorrect runs\tcount\t%d / %d\t%d / %d\t\t0\tPAST BOUND\n",
				w.name, a.failed, a.wrong, b.failed, b.wrong)
			past++
		}
		for _, d := range catalog {
			x, okA := a.medians[d.name]
			y, okB := b.medians[d.name]
			if !okA || !okB || (x == 0 && y == 0) {
				continue
			}
			// From nothing to something has no ratio: it is infinitely worse
			// for a cost, infinitely better for a yield.
			delta := math.Inf(1)
			if x != 0 {
				delta = (y - x) / x
			}
			worse := delta
			if d.better == "higher" {
				worse = -delta
			}
			bound, verdict := "-", ""
			if d.bound > 0 {
				bound, verdict = fmt.Sprintf("%.2f%%", d.bound*100), "ok"
				if worse > d.bound {
					verdict = "PAST BOUND"
					past++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%s\t%s\n",
				w.name, d.name, d.unit, x, y, delta*100, bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if past > 0 {
		return fmt.Errorf("%d row(s) past their bound", past)
	}
	return nil
}

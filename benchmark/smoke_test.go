package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a run
// starts its reference-kernel child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "kernel" {
		if err := kernelLoop(); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// smokeRun runs one workload's tiny op list.
func smokeRun(t *testing.T, workload string, seed int64, traced bool, dirs [2]string) *Report {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := runOne(runConfig{workload: workload, seed: seed, scale: "tiny",
		trace: traced, root: root, buildDir: dirs[0], outDir: dirs[1]})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d problems=%v", workload, seed, rep.Correct, rep.Failed, rep.Problems)
	}
	return rep
}

func digests(rep *Report) string {
	var ds []string
	for _, c := range rep.Cycles {
		ds = append(ds, c.key()+"="+c.Digest)
	}
	return strings.Join(ds, " ")
}

// TestSmoke runs all four workloads end to end: the report carries every
// catalog metric, one seed repeats exactly where it must, and another seed
// gives other inputs.
func TestSmoke(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := smokeRun(t, w.name, 1, true, dirs)
			a := smokeRun(t, w.name, 1, false, dirs)
			b := smokeRun(t, w.name, 1, false, dirs)
			other := smokeRun(t, w.name, 2, false, dirs)

			for _, d := range catalog {
				for _, rep := range []*Report{traced, a} {
					if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s missing or with unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if d.class == endToEnd && a.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, a.Metrics[d.name].Value)
				}
			}
			if a.WorkloadVersion != workloadVersion || a.Env.GoVersion == "" || len(a.Cycles) == 0 {
				t.Errorf("report header incomplete: %+v", a.Env)
			}
			if digests(a) != digests(b) {
				t.Errorf("same seed, different digests:\n%s\n%s", digests(a), digests(b))
			}
			if a.Attempted != b.Attempted {
				t.Errorf("same seed, attempted %d then %d", a.Attempted, b.Attempted)
			}
			if x, y := a.Metrics["transducer.steps_per_stage"].Value, b.Metrics["transducer.steps_per_stage"].Value; x != y || x == 0 {
				t.Errorf("same seed, steps per stage %v then %v", x, y)
			}
			if digests(a) == digests(other) {
				t.Errorf("seeds 1 and 2 gave the same digests: %s", digests(a))
			}
			if w.name == "serve_feedback" {
				if r := a.Metrics["acked_survival_ratio"].Value; r <= 0 || r > 1 {
					t.Errorf("acked_survival_ratio = %v", r)
				}
				if a.Metrics["recovery_ms"].Value <= 0 || traced.Metrics["recovery_ms"].Value <= 0 {
					t.Error("no recovery round was timed")
				}
			}
			if cov := traced.Metrics["trace.coverage_pct"].Value; w.mode == modeLibrary && (cov < 95 || cov > 100.5) {
				t.Errorf("span self times cover %.1f%% of the wall, want within 5%%", cov)
			}
		})
	}
}

// TestStepBudget runs the paper's loop over a scenario whose feedback rounds
// take 97 steps each: the wrangler must stop once the session has passed the
// budget, so the session stays under the guard rail whatever the seed.
func TestStepBudget(t *testing.T) {
	p := workloadParams("payg_cycle", false)
	ph := &phase{s: newSamples()}
	if err := libraryCycle(context.Background(), p, scenario(60, 3707092), 0, ph, nil); err != nil {
		t.Fatal(err)
	}
	skipped := int(ph.s.totals["stages_skipped"])
	if skipped == 0 || ph.ops+skipped != 7 {
		t.Errorf("%d stages run, %d skipped, want 7 in all and some skipped", ph.ops, skipped)
	}
	if steps := ph.cycles[0].Steps; steps <= stepBudget || steps > maxSessionSteps {
		t.Errorf("session took %d steps, want past the budget %d and under the guard rail %d", steps, stepBudget, maxSessionSteps)
	}
}

func TestGuardRailsFire(t *testing.T) {
	if got := checkGuards(&phase{maxSteps: 131, maxLive: 10, loadCPU: time.Second, cpu: 9 * time.Second}); len(got) != 0 {
		t.Errorf("guard rails fired on a valid run: %v", got)
	}
	got := checkGuards(&phase{maxSteps: maxSessionSteps + 1, maxLive: maxLiveSessions + 1,
		loadCPU: 4 * time.Second, cpu: 6 * time.Second})
	if len(got) != 3 {
		t.Errorf("forged violations of all three guard rails gave %d problems: %v", len(got), got)
	}
}

// TestManifestMatchesCatalog holds BENCHMARK.json to the catalog, so the
// contract file and the code cannot drift apart.
func TestManifestMatchesCatalog(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var manifest struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, default %d", manifest.RunSeconds, runSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %+v, want %s", i, got, w.name)
		}
	}
	var e2e, rest []metricDef
	for _, d := range catalog {
		if d.class == endToEnd {
			e2e = append(e2e, d)
		} else {
			rest = append(rest, d)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, e2e, true)
	check("per_layer", manifest.PerLayer, rest, false)
}

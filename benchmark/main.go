// Command benchmark is the repository's frozen benchmark: four named
// workloads over the wrangling core (in-process) and the real vada-server
// binary (as a subprocess), end-to-end metrics with fixed regression bounds,
// and a traced run that says where the time went. README.md is the glossary.
//
//	benchmark [run] --workload <name> --seed <n> [--seconds <s>] --trace <0|1>
//	benchmark run --all [--sets 2]
//	benchmark compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runSeconds is run_seconds in BENCHMARK.json: about how long a measured run
// of a full op list takes on the reference box. The driver passes it back as
// --seconds; the op lists are fixed (workload.go) and do not depend on it.
const runSeconds = 20

// Guard rails: a run that crosses one is not a valid measurement.
const (
	maxSessionSteps = 400  // the lifetime MaxSteps budget bricks a session near 500
	maxLiveSessions = 48   // the server's default cap is 64
	maxLoadgenShare = 0.25 // of all CPU used, so the generator is not what is measured
)

// stepBudget keeps every session under maxSessionSteps whatever the seed: a
// wrangler performs no further wrangling stage on a session whose cumulative
// orchestration steps (every stage event reports them) have passed it. One
// stage takes at most ~122 steps (6 000 scenarios), but how many take that
// many is heavy-tailed: without the budget one session in ~6 000 reached 463
// steps, which fired the guard rail on one seed in ~50. With it about 0.5 %
// of stages are skipped (counted, fixed by the seed) and no session can pass
// stepBudget + one stage.
const stepBudget = 240

type runConfig struct {
	workload     string
	seed         int64
	trace        bool
	kernel       *kernelProc
	scale        string // "full", or "tiny" for the smoke test's shrunken op lists
	updateGolden bool
	root         string // repository root
	buildDir     string // binaries and data directories, git-ignored
	outDir       string // reports and traces, git-ignored
}

func (c runConfig) tiny() bool { return c.scale == "tiny" }

// runner is what the two modes share: repeatable set-up, measured phases,
// and whatever ends the run.
type runner interface {
	setup() error
	undoSetup()
	runPhase(cycles int, traced bool) *phase
	finish(ph *phase)
}

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "compare":
		err = cmdCompare(args)
	case "kernel":
		err = kernelLoop()
	default:
		err = fmt.Errorf("unknown command %q (want run or compare)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is derived from")
	fs.Float64("seconds", runSeconds, "accepted for the driver; the op list is fixed and takes about this long")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.scale, "scale", "full", "full, or tiny for the smoke test's shrunken op lists")
	fs.BoolVar(&cfg.updateGolden, "update-golden", false, "rewrite golden/<workload>.txt from this run")
	all := fs.Bool("all", false, "run every workload, measured then traced")
	sets := fs.Int("sets", 1, "with --all: repeat everything this often and print the agreement table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.trace = *trace == 1
	if cfg.scale != "full" && cfg.scale != "tiny" {
		return fmt.Errorf("unknown scale %q (want full or tiny)", cfg.scale)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	cfg.root = root
	cfg.buildDir = filepath.Join(root, ".bench_build")
	cfg.outDir = filepath.Join(root, "benchmark", "out")
	for _, dir := range []string{cfg.buildDir, cfg.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if *all {
		return runAll(cfg, *sets)
	}
	rep, spans, err := runOne(cfg)
	if err != nil {
		return err
	}
	if err := writeOutputs(cfg, rep, spans); err != nil {
		return err
	}
	printReport(rep)
	return printContractLine(rep)
}

// findRoot locates the repository root: the nearest directory at or above
// the working directory that holds both the server's source and this module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if isFile(filepath.Join(dir, "cmd", "vada-server", "main.go")) && isFile(filepath.Join(dir, "benchmark", "go.mod")) {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", errors.New("run from the repository root (or its benchmark/ directory): cmd/vada-server and benchmark/ not found")
}

func isFile(path string) bool {
	info, err := os.Stat(path)
	return err == nil && info.Mode().IsRegular()
}

// runOne performs one run of one workload.
func runOne(cfg runConfig) (*Report, []Span, error) {
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	p := workloadParams(def.name, cfg.tiny())
	kernel, err := startKernel()
	if err != nil {
		return nil, nil, err
	}
	defer kernel.stop()
	cfg.kernel = kernel
	var r runner
	if def.mode == modeLibrary {
		r = &libraryRun{cfg: cfg, p: p}
	} else {
		r = &serviceRun{cfg: cfg, p: p}
	}

	var setups []float64
	defer r.undoSetup()
	for i := 0; i < p.setups; i++ {
		if i > 0 {
			r.undoSetup()
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var untraced, ph *phase
	if cfg.trace {
		// The first half of the op list twice, spans off then on: the
		// difference is the tracing overhead, and the probes take about as
		// long as the other half would have.
		half := (p.cycles + 1) / 2
		untraced = r.runPhase(half, false)
		ph = r.runPhase(half, true)
	} else {
		ph = r.runPhase(p.cycles, false)
	}
	r.finish(ph)
	if ph.ops == 0 {
		return nil, nil, fmt.Errorf("no operation was attempted: %s", strings.Join(ph.problems, "; "))
	}

	rep := &Report{
		Workload: def.name, WorkloadVersion: workloadVersion, Mode: def.mode,
		Seed: cfg.seed, Scale: cfg.scale,
		Traced: cfg.trace, Attempted: ph.ops, Failed: ph.failed, WallS: ph.wall.Seconds(),
		StagesSkipped: int(ph.s.totals["stages_skipped"]), Cycles: ph.cycles,
		Problems: ph.problems, Samples: ph.s.ms,
		Env: readEnv(cfg.root, cfg.buildDir),
	}
	sort.Slice(rep.Cycles, func(i, j int) bool {
		a, b := rep.Cycles[i], rep.Cycles[j]
		return a.Client < b.Client || a.Client == b.Client && a.Index < b.Index
	})
	extra := map[string]float64{}
	if cfg.trace {
		sizes := fullProbes
		if cfg.tiny() {
			sizes = tinyProbes
		}
		if err := runProbes(cfg.seed, sizes, extra); err != nil {
			rep.Problems = append(rep.Problems, "probes: "+err.Error())
		}
		if def.name == "bootstrap_large" && !cfg.tiny() {
			if err := scalingSweep(cfg.seed, extra); err != nil {
				rep.Problems = append(rep.Problems, err.Error())
			}
		}
	}
	rep.Metrics = computeMetrics(def, ph, untraced, setups, extra)
	if sr, ok := r.(*serviceRun); ok {
		serviceMetrics(rep.Metrics, sr, ph)
		rep.LostSessions = sr.lost
		if def.name == "serve_feedback" {
			rep.Notes = append(rep.Notes,
				"recovery is checked after a process crash (kill -9) only; power loss that discards unflushed pages needs a fault-injection seam under the journal and is out of scope",
				"fsync and page-cache costs are this sandbox's filesystem's ("+rep.Env.DataDirFS+"), not a device's")
		}
	}
	rep.Calibration = calibrationOf(ph.s)
	toReference(rep.Metrics, rep.Calibration)
	rep.Problems = append(rep.Problems, checkGuards(ph)...)
	goldenPath := filepath.Join(cfg.root, "benchmark", "golden", rep.Workload+".txt")
	if cfg.updateGolden {
		if err := writeGolden(goldenPath, rep); err != nil {
			return nil, nil, err
		}
	}
	rep.Problems = append(rep.Problems, checkResults(goldenPath, p, rep)...)
	rep.Correct = len(rep.Problems) == 0
	return rep, ph.spans, nil
}

// checkGuards returns one problem per guard rail the phase crossed.
func checkGuards(g *phase) []string {
	var out []string
	if g.maxSteps > maxSessionSteps {
		out = append(out, fmt.Sprintf("guard rail: a session took %d cumulative steps (limit %d)", g.maxSteps, maxSessionSteps))
	}
	if g.maxLive > maxLiveSessions {
		out = append(out, fmt.Sprintf("guard rail: %d sessions live at once (limit %d)", g.maxLive, maxLiveSessions))
	}
	if total := g.loadCPU + g.cpu; g.loadCPU > 0 && total > 0 {
		if share := float64(g.loadCPU) / float64(total); share > maxLoadgenShare {
			out = append(out, fmt.Sprintf("guard rail: load generator used %.0f%% of all CPU (limit %.0f%%)", share*100, maxLoadgenShare*100))
		}
	}
	return out
}

// checkResults holds the run's outputs to the oracle and the golden file.
func checkResults(goldenPath string, p params, rep *Report) []string {
	var out []string
	if len(rep.Cycles) == 0 {
		return []string{"no cycle completed"}
	}
	if f1 := rep.Metrics["result_f1"].Value; f1 < p.f1Floor {
		out = append(out, fmt.Sprintf("typical result F1 %.4f is under the workload's floor %.2f", f1, p.f1Floor))
	}
	rep.DigestMatch = "not-compared"
	g, err := readGolden(goldenPath)
	if err != nil || g.seed != rep.Seed || g.version != rep.WorkloadVersion || rep.Scale != "full" {
		return out
	}
	rep.DigestMatch = "match"
	for _, c := range rep.Cycles {
		want, ok := g.cycles[c.key()]
		if !ok {
			continue
		}
		// Byte identity is informational, so an optimisation that reorders
		// ties is visible without failing; losing quality is a failure.
		if want.digest != c.Digest {
			rep.DigestMatch = "mismatch"
		}
		if c.F1 < want.f1-0.005 {
			out = append(out, fmt.Sprintf("%s: F1 %.4f fell below golden %.4f", c.key(), c.F1, want.f1))
		}
	}
	return out
}

// golden is golden/<workload>.txt: the per-cycle digests and F1 of one seed
// at the commit that froze the op list.
type golden struct {
	seed    int64
	version int
	cycles  map[string]goldenCycle
}

type goldenCycle struct {
	digest string
	f1     float64
}

func readGolden(path string) (*golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &golden{cycles: map[string]goldenCycle{}}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "# ") {
			fmt.Sscanf(line, "# version=%d seed=%d", &g.version, &g.seed)
			continue
		}
		var key, dg string
		var f1 float64
		if n, _ := fmt.Sscanf(line, "%s %s %f", &key, &dg, &f1); n == 3 {
			g.cycles[key] = goldenCycle{dg, f1}
		}
	}
	return g, nil
}

func writeGolden(path string, rep *Report) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# version=%d seed=%d\n", rep.WorkloadVersion, rep.Seed)
	for _, c := range rep.Cycles {
		fmt.Fprintf(&b, "%s %s %.6f\n", c.key(), c.Digest, c.F1)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// computeMetrics derives every catalog metric the phase can support; the
// rest stay 0, meaning the workload does not exercise that layer.
func computeMetrics(def workloadDef, ph, untraced *phase, setups []float64, extra map[string]float64) metricSet {
	out := metricSet{}
	for _, d := range catalog {
		out[d.name] = Metric{Unit: d.unit}
	}
	set, timing := out.set, out.timing
	s := ph.s
	ops, stages := float64(ph.ops), s.totals["stages"]

	set("setup_s", median(setups), len(setups))
	v, n := s.typical("bootstrap")
	set("bootstrap_ms_p50", v, n)
	v, n = s.typical(reactStages...)
	set("react_ms_p50", v, n)
	var react []float64
	for _, st := range reactStages {
		react = append(react, s.ms["stage:"+st]...)
	}
	set("react_ms_p95", percentile(react, 0.95), len(react))
	set("ops_per_s", ratio(float64(ph.ops-ph.failed), ph.wall.Seconds()), ph.ops)
	timing("read_ms_p50", s.ms["read:result"])
	set("cpu_ms_per_op", ratio(float64(ph.cpu)/1e6, ops), ph.ops)
	// The median within each kind of cycle, like the stage times: a blank
	// session fed through ingest ends near F1 0.8 and a bootstrapped one near
	// 0.5, and at n=600 a scenario's final F1 is ≈ 0.9 or ≈ 0.6, so a plain
	// median (1.5–3.8 % over ten seeds on serve_read_churn) or a mean (4.3 %
	// on bootstrap_large) tracks how many of each a seed drew.
	f1s := map[string][]float64{}
	for _, c := range ph.cycles {
		kind := fmt.Sprintf("%d/%v", c.N, c.Blank)
		f1s[kind] = append(f1s[kind], c.F1)
	}
	v, n = weightedMedians(f1s)
	set("result_f1", v, n)

	set("transducer.steps_per_stage", ratio(s.totals["steps"], stages), 0)
	if def.mode == modeLibrary {
		set("alloc_mb_per_op", ratio(s.totals["alloc_bytes"]/1e6, ops), 0)
		var stageWall float64
		for name, xs := range s.ms {
			if strings.HasPrefix(name, "stage:") {
				for _, x := range xs {
					stageWall += x
				}
			}
		}
		for t, metric := range transducerLayer {
			set(metric, ratio(s.totals["busy:"+t], stages), 0)
		}
		set("transducer.orchestrate_self_ms", ratio(stageWall-s.totals["busy"], stages), 0)
		set("transducer.nochange_step_ratio", ratio(s.totals["nochange_steps"], s.totals["steps"]), 0)
		for _, st := range []string{"bootstrap", "data-context", "feedback", "user-context"} {
			timing("core.stage_ms."+strings.ReplaceAll(st, "-", "_"), s.ms["stage:"+st])
		}
		timing("core.build_ms", s.ms["core.build"])
		set("core.allocs_k_per_stage", ratio(s.totals["mallocs"]/1000, stages), 0)
		set("process.peak_rss_mb", selfPeakRSSMB(), 0)
		set("process.gc_pause_ms", s.totals["gc_pause_ms"], 0)
	}
	for name, v := range extra {
		set(name, v, 0)
	}
	if untraced != nil {
		// Each half is scaled by its own reference-kernel timings, so a
		// machine that changed speed between the halves is not overhead.
		base := ratio(float64(untraced.ops-untraced.failed), untraced.wall.Seconds()) / calibrationOf(untraced.s).TotalFactor
		set("trace.overhead_pct", 100*ratio(base-out["ops_per_s"].Value/calibrationOf(s).TotalFactor, base), 0)
		var covered float64
		for _, ms := range selfTimes(ph.spans) {
			covered += ms
		}
		loops := 1.0
		if def.mode == modeService {
			loops = clients
		}
		set("trace.coverage_pct", 100*ratio(covered, loops*float64(ph.wall)/1e6), 0)
	}
	return out
}

// serviceMetrics adds what only a service run can know: the server's own
// counters, its process, and the recovery rounds.
func serviceMetrics(m metricSet, r *serviceRun, ph *phase) {
	s := ph.s
	set, timing := m.set, m.timing
	ops, stages := float64(ph.ops), s.totals["stages"]

	written := s.totals["persist_journal_bytes_total"] + s.totals["persist_snapshot_bytes_total"]
	set("journal_kb_per_stage", ratio(written/1024, stages), int(stages))
	set("fsyncs_per_stage", ratio(s.totals["persist_fsync_total"], stages), int(stages))
	set("journal.fsyncs_per_stage", ratio(s.totals["persist_fsync_total"], stages), int(stages))
	set("journal.bytes_per_stage", ratio(s.totals["persist_journal_bytes_total"], stages), int(stages))
	set("persist.snapshot_bytes_per_stage", ratio(s.totals["persist_snapshot_bytes_total"], stages), int(stages))
	set("journal.compactions", s.totals["persist_compactions_total"], 0)
	set("journal.fsyncs_per_plan", s.totals["fsyncs_per_plan"], 0)
	set("journal.data_dir_kb_per_live_session", s.totals["data_dir_kb_per_live_session"], 0)
	set("persist.stored_bytes_per_result_byte", s.totals["stored_bytes_per_result_byte"], 0)

	timing("server.stage_overhead_ms", s.ms["overhead"])
	var reads []float64
	for _, kind := range churnReads {
		timing("server.read_ms."+kind, s.ms["read:"+kind])
		reads = append(reads, s.ms["read:"+kind]...)
	}
	set("server.read_ms_p99", percentile(reads, 0.99), len(reads))
	timing("server.create_ms_p50", s.ms["create"])
	timing("server.delete_ms_p50", s.ms["delete"])
	timing("runs.queue_wait_ms_p50", s.ms["queue_wait"])
	timing("runs.plan_ms_p50", s.ms["plan"])
	timing("persist.export_ms_p50", s.ms["export"])
	timing("persist.import_ms_p50", s.ms["import"])
	timing("persist.envelope_kb", s.ms["envelope_kb"])
	timing("connect.ingest_ms_p50", s.ms["stage:ingest"])
	timing("advise.suggestions_ms_p50", s.ms["read:suggestions"])
	timing("advise.accept_ms_p50", s.ms["stage:feedback-batch"])
	for _, st := range []string{"bootstrap", "data-context", "feedback", "user-context"} {
		timing("core.stage_ms."+strings.ReplaceAll(st, "-", "_"), s.ms["core:"+st])
	}

	set("process.server_cpu_ms_per_op", ratio(float64(ph.cpu)/1e6, ops), ph.ops)
	set("process.server_peak_rss_mb", s.totals["server_peak_rss_mb"], 0)
	set("process.loadgen_cpu_share", ratio(float64(ph.loadCPU), float64(ph.loadCPU+ph.cpu)), 0)

	if len(r.recoveries) > 0 {
		var total, ready, survival []float64
		for _, rr := range r.recoveries {
			total = append(total, rr.totalMs)
			ready = append(ready, ratio(rr.readyMs, float64(rr.expected-rr.lost)))
			survival = append(survival, ratio(float64(rr.expected-rr.lost), float64(rr.expected)))
		}
		timing("recovery_ms", total)
		timing("persist.recovery_ms_per_session", ready)
		set("acked_survival_ratio", mean(survival), r.recoveries[0].expected)
	}
}

func writeOutputs(cfg runConfig, rep *Report, spans []Span) error {
	suffix := ""
	if rep.Traced {
		suffix = "-traced"
		if err := writeJSON(filepath.Join(cfg.outDir, "trace-"+rep.Workload+".json"),
			map[string]any{"workload": rep.Workload, "seed": rep.Seed, "spans": spans}); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(cfg.outDir, "report-"+rep.Workload+suffix+".json"), rep)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printed reports whether a metric of the class belongs in a run's output:
// the measured run prints what a user of the system sees, the traced run
// the layers.
func printed(class int, traced bool) bool { return (class == endToEnd) != traced }

// printReport prints every metric by name with its unit.
func printReport(rep *Report) {
	fmt.Printf("workload %s (v%d, %s) seed %d: %d cycles, %d ops, %d failed, %d stages skipped, correct=%v, wall %.1fs, digests %s\n",
		rep.Workload, rep.WorkloadVersion, rep.Mode, rep.Seed, len(rep.Cycles), rep.Attempted, rep.Failed,
		rep.StagesSkipped, rep.Correct, rep.WallS, rep.DigestMatch)
	for _, d := range catalog {
		if m := rep.Metrics[d.name]; printed(d.class, rep.Traced) || d.class == secondary {
			fmt.Printf("  %-40s %14.4f %-6s n=%d\n", d.name, m.Value, m.Unit, m.N)
		}
	}
	for _, s := range rep.LostSessions {
		fmt.Println("  lost session:", s)
	}
	for _, p := range rep.Problems {
		fmt.Println("  PROBLEM:", p)
		// Also where a caller that keeps only the result line still looks.
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", rep.Workload, rep.Seed, p)
	}
}

// printContractLine prints the one-line JSON result the driver reads: the
// end-to-end metrics of a measured run, the per-layer metrics of a traced one.
func printContractLine(rep *Report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range catalog {
		if printed(d.class, rep.Traced) {
			metrics[d.name] = value{rep.Metrics[d.name].Value, d.unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": rep.Correct, "attempted": rep.Attempted,
		"failed": rep.Failed, "metrics": metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload measured then traced, each in a fresh process
// so peak memory and CPU are one workload's, and repeats that `sets` times.
func runAll(cfg runConfig, sets int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var files []string
	for set := 1; set <= sets; set++ {
		var reports []*Report
		for _, w := range workloads {
			for _, trace := range []string{"0", "1"} {
				args := []string{"run", "--workload", w.name, "--seed", fmt.Sprint(cfg.seed), "--trace", trace}
				if cfg.tiny() {
					args = append(args, "--scale", "tiny")
				}
				child := exec.Command(self, args...)
				child.Dir = cfg.root
				child.Stdout, child.Stderr = os.Stdout, os.Stderr
				if err := child.Run(); err != nil {
					return fmt.Errorf("%s (trace %s): %w", w.name, trace, err)
				}
				suffix := map[string]string{"0": "", "1": "-traced"}[trace]
				reps, err := readReports(filepath.Join(cfg.outDir, "report-"+w.name+suffix+".json"))
				if err != nil {
					return err
				}
				reports = append(reports, reps...)
			}
		}
		file := filepath.Join(cfg.outDir, fmt.Sprintf("set-%d.json", set))
		if err := writeJSON(file, reportSet{Reports: reports}); err != nil {
			return err
		}
		files = append(files, file)
	}
	if sets < 2 {
		return nil
	}
	fmt.Printf("\nagreement between set 1 and set %d (same code, same seed):\n", sets)
	return cmdCompare([]string{files[0], files[len(files)-1]})
}

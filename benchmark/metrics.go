package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Metric is one reported number. N is the sample count behind a median or
// percentile (0 for counts and ratios taken over the whole run).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Metric classes. endToEnd metrics exist on every workload, are never 0, and
// are what the measured run prints: the driver's contract asks that of every
// metric it bounds. secondary ones are the issue's other end-to-end metrics:
// they exist in one mode only, or are too unsteady to hold a bound. Both runs
// print them, `compare` checks the bounds of those that have one, and the
// driver reads them from the traced run with the perLayer set.
const (
	endToEnd = iota
	secondary
	perLayer
)

// metricDef is one row of the catalog: BENCHMARK.json and README.md repeat
// it, and the smoke test holds BENCHMARK.json to it.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline a metric may worsen by; 0 = none
	class  int
}

var catalog = []metricDef{
	// A timing bound is at least three times the widest spread ten seeds
	// showed on any workload (8–10 % on payg_cycle, README.md), which puts
	// all of them at the contract's cap.
	{"setup_s", "s", "lower", 0.25, endToEnd},
	{"bootstrap_ms_p50", "ms", "lower", 0.25, endToEnd},
	{"react_ms_p50", "ms", "lower", 0.25, endToEnd},
	{"ops_per_s", "1/s", "higher", 0.25, endToEnd},
	{"cpu_ms_per_op", "ms", "lower", 0.25, endToEnd},
	{"result_f1", "ratio", "higher", 0.05, endToEnd},

	// Counts: they repeat exactly, or to a fraction of a percent.
	{"alloc_mb_per_op", "MB", "lower", 0.02, secondary},
	{"journal_kb_per_stage", "KB", "lower", 0.02, secondary},
	{"fsyncs_per_stage", "count", "lower", 0.05, secondary},
	{"acked_survival_ratio", "ratio", "higher", 0.0001, secondary},

	// End-to-end in the issue, but two sets of runs of the same code and seed
	// disagreed by 20–50 % on them, so they carry no bound.
	{"react_ms_p95", "ms", "lower", 0, secondary},
	{"read_ms_p50", "ms", "lower", 0, secondary},
	{"recovery_ms", "ms", "lower", 0, secondary},

	{"extract.web_extraction_ms", "ms", "lower", 0, perLayer},
	{"match.schema_ms", "ms", "lower", 0, perLayer},
	{"match.instance_ms", "ms", "lower", 0, perLayer},
	{"mapping.generate_ms", "ms", "lower", 0, perLayer},
	{"mapping.execute_ms", "ms", "lower", 0, perLayer},
	{"cfd.learn_ms", "ms", "lower", 0, perLayer},
	{"cfd.repair_ms", "ms", "lower", 0, perLayer},
	{"quality.assess_ms", "ms", "lower", 0, perLayer},
	{"mcda.select_ms", "ms", "lower", 0, perLayer},
	{"fusion.fuse_ms", "ms", "lower", 0, perLayer},
	{"feedback.assimilate_ms", "ms", "lower", 0, perLayer},
	{"transducer.orchestrate_self_ms", "ms", "lower", 0, perLayer},
	{"transducer.steps_per_stage", "count", "lower", 0, perLayer},
	{"transducer.nochange_step_ratio", "ratio", "lower", 0, perLayer},
	{"transducer.readiness_us", "us", "lower", 0, perLayer},
	{"core.stage_ms.bootstrap", "ms", "lower", 0, perLayer},
	{"core.stage_ms.data_context", "ms", "lower", 0, perLayer},
	{"core.stage_ms.feedback", "ms", "lower", 0, perLayer},
	{"core.stage_ms.user_context", "ms", "lower", 0, perLayer},
	{"core.build_ms", "ms", "lower", 0, perLayer},
	{"core.allocs_k_per_stage", "count", "lower", 0, perLayer},
	{"core.bootstrap_ms.n200", "ms", "lower", 0, perLayer},
	{"core.bootstrap_ms.n400", "ms", "lower", 0, perLayer},
	{"core.bootstrap_ms.n800", "ms", "lower", 0, perLayer},
	{"core.bootstrap_ms.n1600", "ms", "lower", 0, perLayer},
	{"core.scale_exponent", "ratio", "lower", 0, perLayer},
	{"process.peak_rss_mb", "MB", "lower", 0, perLayer},
	{"process.gc_pause_ms", "ms", "lower", 0, perLayer},
	{"vadalog.parse_us", "us", "lower", 0, perLayer},
	{"vadalog.closure_ms", "ms", "lower", 0, perLayer},
	{"vadalog.join_ms", "ms", "lower", 0, perLayer},
	{"vadalog.join_allocs_k", "count", "lower", 0, perLayer},
	{"vadalog.agg_ms", "ms", "lower", 0, perLayer},
	{"mapping.execute_probe_ms", "ms", "lower", 0, perLayer},
	{"mapping.execute_probe_allocs_k", "count", "lower", 0, perLayer},
	{"relation.json_encode_mb_s", "MB/s", "higher", 0, perLayer},
	{"relation.json_decode_mb_s", "MB/s", "higher", 0, perLayer},
	{"connect.csv_read_rows_s", "1/s", "higher", 0, perLayer},
	{"connect.csv_write_rows_s", "1/s", "higher", 0, perLayer},
	{"connect.ingest_ms_p50", "ms", "lower", 0, perLayer},
	{"server.stage_overhead_ms", "ms", "lower", 0, perLayer},
	{"server.read_ms.result", "ms", "lower", 0, perLayer},
	{"server.read_ms.state", "ms", "lower", 0, perLayer},
	{"server.read_ms.export_csv", "ms", "lower", 0, perLayer},
	{"server.read_ms.export_jsonl", "ms", "lower", 0, perLayer},
	{"server.read_ms.suggestions", "ms", "lower", 0, perLayer},
	{"server.read_ms.list", "ms", "lower", 0, perLayer},
	{"server.read_ms_p99", "ms", "lower", 0, perLayer},
	{"server.create_ms_p50", "ms", "lower", 0, perLayer},
	{"server.delete_ms_p50", "ms", "lower", 0, perLayer},
	{"runs.queue_wait_ms_p50", "ms", "lower", 0, perLayer},
	{"runs.plan_ms_p50", "ms", "lower", 0, perLayer},
	{"journal.bytes_per_stage", "B", "lower", 0, perLayer},
	{"journal.fsyncs_per_stage", "count", "lower", 0, perLayer},
	{"journal.fsyncs_per_plan", "count", "lower", 0, perLayer},
	{"journal.compactions", "count", "lower", 0, perLayer},
	{"journal.data_dir_kb_per_live_session", "KB", "lower", 0, perLayer},
	{"persist.export_ms_p50", "ms", "lower", 0, perLayer},
	{"persist.import_ms_p50", "ms", "lower", 0, perLayer},
	{"persist.envelope_kb", "KB", "lower", 0, perLayer},
	{"persist.snapshot_bytes_per_stage", "B", "lower", 0, perLayer},
	{"persist.recovery_ms_per_session", "ms", "lower", 0, perLayer},
	{"persist.stored_bytes_per_result_byte", "ratio", "lower", 0, perLayer},
	{"advise.suggestions_ms_p50", "ms", "lower", 0, perLayer},
	{"advise.accept_ms_p50", "ms", "lower", 0, perLayer},
	{"process.server_cpu_ms_per_op", "ms", "lower", 0, perLayer},
	{"process.server_peak_rss_mb", "MB", "lower", 0, perLayer},
	{"process.loadgen_cpu_share", "ratio", "lower", 0, perLayer},
	{"trace.overhead_pct", "%", "lower", 0, perLayer},
	{"trace.coverage_pct", "%", "higher", 0, perLayer},
}

// metricSet is a report's metrics by catalog name.
type metricSet map[string]Metric

// set stores a value under a catalog name, with the catalog's unit.
func (m metricSet) set(name string, v float64, n int) {
	for _, d := range catalog {
		if d.name == name {
			m[name] = Metric{Value: v, Unit: d.unit, N: n}
			return
		}
	}
	panic("metric not in the catalog: " + name)
}

// timing stores the median of xs and how many samples it is the median of.
func (m metricSet) timing(name string, xs []float64) { m.set(name, median(xs), len(xs)) }

// samples collects named timing samples (ms) and named totals for one
// client; clients merge into one after a phase so the hot path takes no lock.
type samples struct {
	ms     map[string][]float64
	totals map[string]float64
}

func newSamples() *samples {
	return &samples{ms: map[string][]float64{}, totals: map[string]float64{}}
}

func (s *samples) observe(name string, ms float64) { s.ms[name] = append(s.ms[name], ms) }
func (s *samples) add(name string, v float64)      { s.totals[name] += v }

func (s *samples) merge(o *samples) {
	for k, v := range o.ms {
		s.ms[k] = append(s.ms[k], v...)
	}
	for k, v := range o.totals {
		s.totals[k] += v
	}
}

// kindKey names the samples of one kind of stage: the stage at one scenario
// size. Stages are also recorded under "stage:<name>", sizes together.
func kindKey(stage string, n int) string { return fmt.Sprintf("kind:%s@%d", stage, n) }

// typical is the median of each kind of the named stages, averaged with the
// kinds' sample counts as weights, and the number of samples behind it. A
// plain median over kinds that cost differently (a data-context at 150 ms,
// a user-context at 30 ms; an ingest at n=30 and at n=120) falls in the gap
// between them, and which side of the gap it lands on changes with the seed:
// over ten seeds it spread by 16 % on payg_cycle where this spreads by 8 %.
// The weights are constants of the op list.
func (s *samples) typical(stages ...string) (float64, int) {
	kinds := map[string][]float64{}
	for k, xs := range s.ms {
		name, _, _ := strings.Cut(strings.TrimPrefix(k, "kind:"), "@")
		if strings.HasPrefix(k, "kind:") && slices.Contains(stages, name) {
			kinds[k] = xs
		}
	}
	return weightedMedians(kinds)
}

// weightedMedians is the median of each group, averaged with the groups'
// sizes as weights, and the number of values in all of them.
func weightedMedians(groups map[string][]float64) (float64, int) {
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed order of summation
	sum, n := 0.0, 0
	for _, k := range keys {
		sum += median(groups[k]) * float64(len(groups[k]))
		n += len(groups[k])
	}
	return ratio(sum, float64(n)), n
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median averages the two middle values of an even-sized sample, so a
// bimodal sample does not flip between its modes from run to run.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

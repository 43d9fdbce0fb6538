package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"vada/internal/connect"
	"vada/internal/datagen"
	"vada/internal/relation"
)

// workloadVersion is bumped whenever an op list changes, so reports from
// different op lists are never compared by accident.
const workloadVersion = 2

const (
	modeLibrary = "library"
	modeService = "service"
)

// clients is the number of closed-loop wranglers a service workload drives,
// one connection each; the reference box has two cores.
const clients = 2

// workloadDef names one workload; why is repeated in BENCHMARK.json.
type workloadDef struct {
	name string
	mode string
	why  string
}

var workloads = []workloadDef{
	{"payg_cycle", modeLibrary,
		"the paper's pay-as-you-go loop at interactive size, in-process: orchestration and matching dominate, journal and server do no work"},
	{"bootstrap_large", modeLibrary,
		"first result over large sources, in-process: mapping execution in the Vadalog engine is most of the wall and grows quadratically"},
	{"serve_feedback", modeService,
		"write-heavy sessions against the real server binary: smallest core share per stage, so HTTP, runs, journal and recovery after kill -9 show"},
	{"serve_read_churn", modeService,
		"reads, export/import, create/delete and CSV ingest beside writes on the same server layers, so a write-path gain that costs reads shows"},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// params is a workload's op list: how many session cycles each client runs
// and what one cycle does. The full values are the frozen benchmark, sized so
// that a measured run takes about run_seconds (BENCHMARK.json) on the two-core
// reference box; tiny is the same op list shrunk for the smoke test. A run
// always performs the whole list, so `attempted`, steps, bytes and digests
// are constants of (workload, seed).
type params struct {
	cycles         int   // session cycles per client
	setups         int   // set-up passes; setup_s is their median, so one cold build does not decide it
	sizes          []int // scenario sizes, rotated by cycle index
	feedbackRounds int
	feedbackBudget int
	userContexts   []string
	keepLive       int // serve_feedback: finished sessions each client leaves live
	killRounds     int // serve_feedback: kill -9 → restart → verify rounds
	reads          int // serve_read_churn: reads per cycle
	blankEvery     int // serve_read_churn: every k-th cycle ingests into a blank session
	f1Floor        float64
}

func workloadParams(name string, tiny bool) params {
	var p params
	switch name {
	case "payg_cycle":
		p = params{cycles: 40, sizes: []int{100}, feedbackRounds: 3, feedbackBudget: 40,
			userContexts: []string{"crime", "size"}, f1Floor: 0.80}
		if tiny {
			p.sizes, p.feedbackBudget, p.f1Floor = []int{40}, 10, 0.5
		}
	case "bootstrap_large":
		p = params{cycles: 18, sizes: []int{600}, f1Floor: 0.80}
		if tiny {
			p.sizes, p.f1Floor = []int{80}, 0.5
		}
	case "serve_feedback":
		p = params{cycles: 34, sizes: []int{60}, feedbackRounds: 3, feedbackBudget: 40,
			keepLive: 3, killRounds: 5, f1Floor: 0.70}
		if tiny {
			p.sizes, p.feedbackBudget, p.killRounds, p.f1Floor = []int{20}, 10, 1, 0.3
		}
	case "serve_read_churn":
		p = params{cycles: 72, sizes: []int{30, 60, 120}, reads: 48, blankEvery: 4, f1Floor: 0.30}
		if tiny {
			p.sizes, p.reads, p.blankEvery, p.f1Floor = []int{10, 20, 30}, 12, 2, 0.1
		}
	}
	p.setups = 5
	if tiny {
		p.cycles, p.setups = 2, 2
	}
	return p
}

// cycleSeed derives the scenario seed of one cycle from the run seed, the
// client and the cycle index (splitmix64), kept positive and JSON-safe.
func cycleSeed(seed int64, client, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9 + uint64(index+1)*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z&0x7fffffff) + 1
}

// scenario regenerates exactly what the server builds for POST /sessions
// {"n": n, "seed": seed}: the default configuration with size and seed set.
func scenario(n int, seed int64) *datagen.Scenario {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

// renderCSV renders a relation through the connector sink: canonical row
// order, so equal relations give equal bytes.
func renderCSV(rel *relation.Relation) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := connect.Write(&buf, rel, connect.FormatCSV); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// parseExport decodes an export body back into a relation without header
// inference, for scoring and annotating in the benchmark process.
func parseExport(body []byte, format string) (*relation.Relation, error) {
	rel, _, err := connect.Read("result", bytes.NewReader(body),
		connect.ReadOptions{Format: format, Mapping: map[string]string{}})
	return rel, err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// CycleRecord is the checked outcome of one session cycle.
type CycleRecord struct {
	Client int     `json:"client"`
	Index  int     `json:"index"`
	Seed   int64   `json:"seed"`
	N      int     `json:"n"`
	Blank  bool    `json:"blank,omitempty"`
	Digest string  `json:"digest"`
	F1     float64 `json:"f1"`
	Steps  int     `json:"steps"`
}

func (c CycleRecord) key() string { return fmt.Sprintf("c%d.%d", c.Client, c.Index) }

// Calibration is how a report's times were scaled to reference milliseconds
// (calibrate.go): divide a time by Factor, or one of the run's totals by
// TotalFactor, to get what the clock showed.
type Calibration struct {
	KernelMs     float64 `json:"kernel_cpu_ms_p50"`
	KernelMeanMs float64 `json:"kernel_cpu_ms_mean"`
	ReferenceMs  float64 `json:"reference_cpu_ms"`
	Factor       float64 `json:"factor"`
	TotalFactor  float64 `json:"total_factor"`
	N            int     `json:"n"`
}

// Report is what one run writes to benchmark/out/.
type Report struct {
	Workload        string        `json:"workload"`
	WorkloadVersion int           `json:"workload_version"`
	Mode            string        `json:"mode"`
	Seed            int64         `json:"seed"`
	Scale           string        `json:"scale"`
	Traced          bool          `json:"traced"`
	Correct         bool          `json:"correct"`
	Attempted       int           `json:"attempted"`
	Failed          int           `json:"failed"`
	StagesSkipped   int           `json:"stages_skipped"` // by the step budget (main.go)
	WallS           float64       `json:"wall_s"`
	Metrics         metricSet     `json:"metrics"`
	Cycles          []CycleRecord `json:"cycles"`
	DigestMatch     string        `json:"digest_match"`
	LostSessions    []string      `json:"lost_sessions,omitempty"`
	Problems        []string      `json:"problems,omitempty"`
	Notes           []string      `json:"notes,omitempty"`
	Env             Env           `json:"env"`
	Calibration     Calibration   `json:"calibration"`
	// Samples are the raw timings (ms) behind every median and percentile,
	// so a report can be re-analysed without re-running it.
	Samples map[string][]float64 `json:"samples"`
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/mapping"
	"vada/internal/relation"
	"vada/internal/vadalog"
)

// The probes time single layers on fixed fixtures after the op list, so a
// per-layer number exists even for layers a workload's own trace cannot
// separate. Each runs until probeReps repetitions or probeTime have passed
// and reports the median.
const (
	probeReps = 20
	probeTime = time.Second
)

// probeSizes are the scenario sizes of the probes' fixtures: the reference
// wrangler and the large sources.
type probeSizes struct{ ref, big int }

var (
	fullProbes = probeSizes{ref: 400, big: 1600}
	tinyProbes = probeSizes{ref: 50, big: 100} // the smoke test's
)

const (
	closureProgram = `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).`
	// joinProgram is the benchmark's own fixed two-way join with negation:
	// properties both portals list, and those of them without a crime rank.
	joinProgram = `
both(S, P) :- rightmove(_, S, P, _, _, _), onthemarket(_, S, P, _, _, _).
ranked(P) :- deprivation(P, _).
unranked(S, P) :- both(S, P), not ranked(P).`
	aggProgram = `percode(P, count(S)) :- rightmove(_, S, P, _, _, _).`
)

// probe times fn and returns the median wall in ms and the mean allocation
// count per repetition.
func probe(fn func() error) (ms, allocs float64, err error) {
	var walls []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for start := time.Now(); len(walls) < probeReps && (len(walls) == 0 || time.Since(start) < probeTime); {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		walls = append(walls, msSince(t0))
	}
	runtime.ReadMemStats(&after)
	return median(walls), float64(after.Mallocs-before.Mallocs) / float64(len(walls)), nil
}

// runProbes fills the probe metrics into out.
func runProbes(seed int64, sizes probeSizes, out map[string]float64) error {
	ref := scenario(sizes.ref, cycleSeed(seed, 0, -3))
	w := core.BuildScenarioWrangler(ref)
	if _, err := w.Run(context.Background()); err != nil {
		return fmt.Errorf("probe fixture bootstrap: %w", err)
	}
	big := scenario(sizes.big, cycleSeed(seed, 0, -4))
	bigEDB := vadalog.MapEDB{"rightmove": big.Rightmove.Tuples,
		"onthemarket": big.OnTheMarket.Tuples, "deprivation": big.Deprivation.Tuples}

	runProgram := func(src string, edb vadalog.EDB, pred string) func() error {
		return func() error {
			prog, err := vadalog.Parse(src)
			if err != nil {
				return err
			}
			res, err := vadalog.NewEngine().Run(prog, edb)
			if err != nil {
				return err
			}
			if res.Count(pred) == 0 {
				return fmt.Errorf("probe derived no %s facts", pred)
			}
			return nil
		}
	}

	ms, _, err := probe(func() error { _, err := vadalog.Parse(joinProgram); return err })
	if err != nil {
		return err
	}
	out["vadalog.parse_us"] = ms * 1000

	var edges []relation.Tuple
	for i := 0; i < 150; i++ {
		edges = append(edges, relation.NewTuple(i, i+1))
	}
	if out["vadalog.closure_ms"], _, err = probe(runProgram(closureProgram, vadalog.MapEDB{"edge": edges}, "reach")); err != nil {
		return err
	}
	var allocs float64
	if out["vadalog.join_ms"], allocs, err = probe(runProgram(joinProgram, bigEDB, "both")); err != nil {
		return err
	}
	out["vadalog.join_allocs_k"] = allocs / 1000
	if out["vadalog.agg_ms"], _, err = probe(runProgram(aggProgram, bigEDB, "percode")); err != nil {
		return err
	}

	sources := map[string]*relation.Relation{}
	for _, name := range w.KB.RelationNames(core.RelSourcePrefix) {
		sources[name[len(core.RelSourcePrefix):]] = w.KB.Relation(name)
	}
	engine := vadalog.NewEngine()
	if out["mapping.execute_probe_ms"], allocs, err = probe(func() error {
		for _, m := range w.Mappings() {
			if _, err := mapping.Execute(m, sources, engine); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	out["mapping.execute_probe_allocs_k"] = allocs / 1000

	if ms, _, err = probe(func() error {
		for _, t := range w.Registry().All() {
			if _, err := t.Dependency().Satisfied(w.KB, engine); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	out["transducer.readiness_us"] = ms * 1000

	result := w.Result()
	encoded, err := json.Marshal(result)
	if err != nil {
		return err
	}
	mb := float64(len(encoded)) / 1e6
	if ms, _, err = probe(func() error { _, err := json.Marshal(result); return err }); err != nil {
		return err
	}
	out["relation.json_encode_mb_s"] = ratio(mb, ms/1000)
	if ms, _, err = probe(func() error { return json.Unmarshal(encoded, new(relation.Relation)) }); err != nil {
		return err
	}
	out["relation.json_decode_mb_s"] = ratio(mb, ms/1000)

	csv, err := renderCSV(big.Rightmove)
	if err != nil {
		return err
	}
	rows := float64(big.Rightmove.Cardinality())
	if ms, _, err = probe(func() error { _, err := renderCSV(big.Rightmove); return err }); err != nil {
		return err
	}
	out["connect.csv_write_rows_s"] = ratio(rows, ms/1000)
	if ms, _, err = probe(func() error {
		_, _, err := connect.Read("rightmove", bytes.NewReader(csv), connect.ReadOptions{Mapping: map[string]string{}})
		return err
	}); err != nil {
		return err
	}
	out["connect.csv_read_rows_s"] = ratio(rows, ms/1000)
	return nil
}

// sweepSizes are the scenario sizes of bootstrap_large's scaling sweep.
var sweepSizes = []int{200, 400, 800, 1600}

// scalingSweep bootstraps one scenario per size and fits the log-log slope:
// 1 is linear, 2 quadratic.
func scalingSweep(seed int64, out map[string]float64) error {
	var xs, ys []float64
	for _, n := range sweepSizes {
		w := core.BuildScenarioWrangler(scenario(n, cycleSeed(seed, 0, -5)))
		t0 := time.Now()
		if _, err := w.Run(context.Background()); err != nil {
			return fmt.Errorf("sweep n=%d: %w", n, err)
		}
		ms := msSince(t0)
		out[fmt.Sprintf("core.bootstrap_ms.n%d", n)] = ms
		xs, ys = append(xs, math.Log(float64(n))), append(ys, math.Log(ms))
	}
	mx, my := mean(xs), mean(ys)
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	out["core.scale_exponent"] = sxy / sxx
	return nil
}

package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestName checks the canonical series-name composition: sorted labels,
// quoted values, stable across argument order.
func TestName(t *testing.T) {
	if got := Name("x"); got != "x" {
		t.Fatalf("bare name: %q", got)
	}
	a := Name("http_requests_total", "route", "/api", "code", "200")
	b := Name("http_requests_total", "code", "200", "route", "/api")
	if a != b {
		t.Fatalf("label order changed the series: %q vs %q", a, b)
	}
	want := `http_requests_total{code="200",route="/api"}`
	if a != want {
		t.Fatalf("series = %q, want %q", a, want)
	}
}

// TestConcurrentIncrements hammers one registry from many goroutines —
// counters, gauges and histograms under the race detector — and checks
// nothing is lost.
func TestConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				reg.Counter("ops_total").Inc()
				reg.Gauge("level").Add(1)
				reg.Histogram("lat", nil).Observe(0.003)
			}
		}()
	}
	wg.Wait()
	const want = workers * perWorker
	if got := reg.Counter("ops_total").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := reg.Gauge("level").Value(); got != want {
		t.Errorf("gauge = %d, want %d", got, want)
	}
	h := reg.Histogram("lat", nil)
	if h.Count() != want {
		t.Errorf("histogram count = %d, want %d", h.Count(), want)
	}
	if sum := h.Sum(); math.Abs(sum-want*0.003) > 1e-6*want {
		t.Errorf("histogram sum = %g, want ~%g", sum, want*0.003)
	}
}

// TestGaugeMax checks the high-water helper only moves up.
func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("high water = %d, want 5", got)
	}
	g.Max(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("high water = %d, want 9", got)
	}
}

// TestQuantileAccuracy feeds a known uniform distribution through the
// default buckets and checks the interpolated p50/p90/p99 land within one
// bucket width of the true quantiles.
func TestQuantileAccuracy(t *testing.T) {
	h := NewHistogram(DefBuckets)
	// 10k uniform samples over (0, 1]: true quantile q is simply q.
	rng := rand.New(rand.NewSource(42))
	const n = 10000
	for i := 0; i < n; i++ {
		h.Observe(rng.Float64())
	}
	for _, tc := range []struct{ q, tol float64 }{
		{0.50, 0.25}, // true 0.5 sits in the (0.25, 0.5] bucket
		{0.90, 0.50}, // true 0.9 sits in the (0.5, 1] bucket
		{0.99, 0.50},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.q) > tc.tol {
			t.Errorf("p%d = %g, want %g ± %g", int(tc.q*100), got, tc.q, tc.tol)
		}
	}

	// A fine-grained histogram matched to the data should nail quantiles
	// to its bucket width.
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i+1) / 100
	}
	fine := NewHistogram(bounds)
	for i := 0; i < n; i++ {
		fine.Observe(rng.Float64())
	}
	for _, q := range []float64{0.50, 0.90, 0.99} {
		got := fine.Quantile(q)
		if math.Abs(got-q) > 0.02 {
			t.Errorf("fine p%d = %g, want %g ± 0.02", int(q*100), got, q)
		}
	}
}

// TestQuantileEdges covers the degenerate shapes: empty, single
// observation, and everything in the overflow bucket.
func TestQuantileEdges(t *testing.T) {
	h := NewHistogram(DefBuckets)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %g, want 0", got)
	}
	h.Observe(0.003)
	if got := h.Quantile(0.5); math.Abs(got-0.003) > 0.0025 {
		t.Fatalf("single-sample p50 = %g, want ~0.003", got)
	}
	over := NewHistogram([]float64{0.001})
	over.Observe(42)
	over.Observe(43)
	if got := over.Quantile(0.9); got != 43 {
		t.Fatalf("overflow p90 = %g, want the max (43)", got)
	}
}

// TestSnapshotAndDelta checks the JSON projection round-trips and the
// counter diff reports interval activity only.
func TestSnapshotAndDelta(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(3)
	reg.Gauge("depth").Set(7)
	reg.Histogram("lat", nil).Observe(0.01)
	before := reg.Snapshot()

	raw, err := json.Marshal(before)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if decoded.Counters["a_total"] != 3 || decoded.Gauges["depth"] != 7 {
		t.Fatalf("round-trip lost values: %+v", decoded)
	}
	hs := decoded.Histograms["lat"]
	if hs.Count != 1 || len(hs.Buckets) != len(DefBuckets)+1 {
		t.Fatalf("histogram snapshot malformed: %+v", hs)
	}
	if last := hs.Buckets[len(hs.Buckets)-1]; last.LE != "+Inf" || last.Count != 1 {
		t.Fatalf("cumulative +Inf bucket = %+v, want count 1", last)
	}

	reg.Counter("a_total").Add(2)
	reg.Counter("b_total").Inc()
	// A snapshot is a copy: later activity shows only as the difference
	// between two of them.
	after := reg.Snapshot()
	if da, db := after.Counters["a_total"]-before.Counters["a_total"], after.Counters["b_total"]-before.Counters["b_total"]; da != 2 || db != 1 {
		t.Fatalf("delta = {a_total:%d b_total:%d}, want {a_total:2 b_total:1}", da, db)
	}
}

// TestSumCounters checks the prefix roll-up over labelled series.
func TestSumCounters(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Name("req_total", "route", "/a")).Add(2)
	reg.Counter(Name("req_total", "route", "/b")).Add(3)
	reg.Counter("other_total").Add(100)
	if got := SumCounters(reg.Snapshot(), "req_total"); got != 5 {
		t.Fatalf("rolled-up req_total = %d, want 5", got)
	}
}

// TestObserveSince sanity-checks the latency shorthand records a positive
// duration in seconds.
func TestObserveSince(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveSince(time.Now().Add(-10 * time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if s := h.Sum(); s < 0.009 || s > 5 {
		t.Fatalf("observed %gs, want ~0.01s", s)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Package metrics is the in-process observability substrate: a
// dependency-free, concurrency-safe registry of named counters, gauges and
// fixed-bucket latency histograms with quantile estimation, projected on
// demand into a JSON-ready Snapshot.
//
// The package deliberately reimplements the small useful core of a metrics
// library instead of importing one: every instrument is a couple of atomics,
// hot-path updates never take the registry lock, and the snapshot form is
// stable enough to diff across time — which is exactly what the load
// generator does to derive server-side deltas (bytes written, fsyncs,
// dropped events) for a benchmark run.
//
// Instruments are identified by name; Name composes a base name with label
// pairs into the canonical `base{k="v",...}` form so per-route and per-stage
// series stay distinct:
//
//	reg.Counter(metrics.Name("http_requests_total", "route", pat)).Inc()
//	reg.Histogram("run_stage_seconds").Observe(dt)
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// buckets are every histogram's latency bucket upper bounds, in seconds:
// half-millisecond resolution at the fast end, ten-second ceiling at the
// slow end, roughly exponential in between. Observations above the last
// bound land in the implicit +Inf bucket.
var buckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Name composes a metric name with label key/value pairs into the canonical
// `base{k1="v1",k2="v2"}` series name. Labels are sorted by key so the same
// set always produces the same series regardless of argument order; an odd
// trailing key is paired with an empty value rather than dropped.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		p := pair{k: kv[i]}
		if i+1 < len(kv) {
			p.v = kv[i+1]
		}
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing count. The zero value is ready to
// use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, live sessions, in-flight
// requests). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max raises the level to n if n is greater — a high-water mark.
func (g *Gauge) Max(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: observations are counted into
// the bucket whose upper bound first contains them (plus an implicit +Inf
// overflow bucket), alongside a running count, sum, min and max. Quantiles
// are estimated by linear interpolation within the containing bucket, the
// standard fixed-bucket estimator: accuracy is bounded by bucket width, and
// the buckets span 0.5ms–10s. The zero value is NOT ready to use; obtain
// histograms from a Registry.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits
	max    atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over the given ascending upper bounds,
// which it shares: buckets, and other bounds in the package's tests.
func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value (NaN observations are dropped).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sum, v)
	casFloat(&h.min, v, func(cur float64) bool { return v < cur })
	casFloat(&h.max, v, func(cur float64) bool { return v > cur })
}

// ObserveSince records the seconds elapsed since t0 — the latency shorthand.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// casFloat atomically replaces the stored float with v while better reports
// v should win against the current value.
func casFloat(a *atomic.Uint64, v float64, better func(cur float64) bool) {
	for {
		old := a.Load()
		if !better(math.Float64frombits(old)) {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the containing bucket; observations in the overflow bucket are
// attributed the maximum observed value. It returns 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) {
				// Overflow bucket: the best point estimate is the max seen.
				return math.Float64frombits(h.max.Load())
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			// Clamp interpolation to the observed range so tiny histograms
			// don't report a quantile below the smallest observation.
			est := lo + (hi-lo)*(rank-float64(cum))/float64(n)
			if min := math.Float64frombits(h.min.Load()); est < min {
				est = min
			}
			if max := math.Float64frombits(h.max.Load()); est > max {
				est = max
			}
			return est
		}
		cum += n
	}
	return math.Float64frombits(h.max.Load())
}

// Registry holds named instruments. Lookups take a read lock only on the
// first use of a name; updates on the returned instruments are lock-free.
// The zero value is NOT ready to use; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	return h
}

// Bucket is one cumulative histogram bucket of a snapshot. LE is the upper
// bound rendered as a string ("0.005", "+Inf") because JSON cannot carry
// infinities.
type Bucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramSnapshot is the JSON-ready projection of one histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min,omitempty"`
	Max     float64  `json:"max,omitempty"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time projection of a whole registry, JSON-ready
// and diffable: subtract two snapshots' counters to get the activity of an
// interval.
type Snapshot struct {
	At         time.Time                    `json:"at"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot projects every instrument. The projection is not a consistent
// cut — instruments keep updating concurrently — which is fine for
// monitoring: each individual value is atomically read.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		At:         time.Now().UTC(),
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// snapshot projects one histogram, buckets rendered cumulatively.
func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if out.Count > 0 {
		out.Min = math.Float64frombits(h.min.Load())
		out.Max = math.Float64frombits(h.max.Load())
	}
	var cum int64
	out.Buckets = make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv(h.bounds[i])
		}
		out.Buckets = append(out.Buckets, Bucket{LE: le, Count: cum})
	}
	return out
}

// strconv renders a bucket bound compactly (no trailing zeros).
func strconv(v float64) string { return fmt.Sprintf("%g", v) }

// SumCounters sums every counter of a snapshot whose name starts with
// prefix — the healthz roll-up helper (per-route series share a prefix).
func SumCounters(s Snapshot, prefix string) int64 {
	var total int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

package metrics

import (
	"strings"
	"testing"
)

// TestWritePrometheusFormat pins the exposition format byte-for-byte:
// sorted families with # TYPE headers, labels carried over from the
// canonical series names, histograms expanded into cumulative
// _bucket/_sum/_count.
func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("http_requests_total", "route", "GET /x", "code", "200")).Add(3)
	r.Counter("errors_total").Add(1)
	r.Gauge("http_in_flight").Set(2)
	name := Name("http_request_seconds", "route", "GET /x")
	r.hists[name] = newHistogram([]float64{0.01, 0.1}) // two buckets, so the expansion reads short
	h := r.Histogram(name)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(7)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE errors_total counter
errors_total 1
# TYPE http_in_flight gauge
http_in_flight 2
# TYPE http_request_seconds histogram
http_request_seconds_bucket{route="GET /x",le="0.01"} 1
http_request_seconds_bucket{route="GET /x",le="0.1"} 2
http_request_seconds_bucket{route="GET /x",le="+Inf"} 3
http_request_seconds_sum{route="GET /x"} 7.055
http_request_seconds_count{route="GET /x"} 3
# TYPE http_requests_total counter
http_requests_total{code="200",route="GET /x"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusMultiSeries checks that several series of one
// family share a single # TYPE header and sort deterministically.
func TestWritePrometheusMultiSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("ops_total", "op", "b")).Add(2)
	r.Counter(Name("ops_total", "op", "a")).Add(1)

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ops_total counter
ops_total{op="a"} 1
ops_total{op="b"} 2
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestStartRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	stop := StartRuntimeSampler(r) // the immediate sample; the first tick is 10s away
	defer stop()
	s := r.Snapshot()
	if s.Gauges[RuntimeGoroutines] <= 0 {
		t.Errorf("goroutines gauge = %d, want > 0", s.Gauges[RuntimeGoroutines])
	}
	if s.Gauges[RuntimeHeapInuse] <= 0 {
		t.Errorf("heap-inuse gauge = %d, want > 0", s.Gauges[RuntimeHeapInuse])
	}
	stop()
	stop() // idempotent
}

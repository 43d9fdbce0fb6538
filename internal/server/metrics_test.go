package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vada/internal/metrics"
)

// getMetricz fetches and decodes the metrics snapshot.
func getMetricz(t *testing.T, ts *httptest.Server) metrics.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metricz: %s", resp.Status)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestMetriczReflectsPlanRun drives a three-stage plan to completion and
// checks the metrics snapshot accounts for it across every layer: HTTP
// per-route counters and latency, run-engine completions, queue wait and
// per-stage durations, and the session population gauge.
func TestMetriczReflectsPlanRun(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	plan := `{"stages": [
		{"stage": "bootstrap"},
		{"stage": "data-context"},
		{"stage": "feedback", "payload": {"budget": 20}}
	]}`
	resp, err := http.Post(base+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan submit: %s", resp.Status)
	}
	final := pollRun(t, ts.URL+resp.Header.Get("Location"))
	if final["state"] != "succeeded" {
		t.Fatalf("plan run: %v (%v)", final["state"], final["error"])
	}

	snap := getMetricz(t, ts)

	// HTTP layer: the session create and the plan submission were counted
	// under their mux patterns with their status codes.
	for _, name := range []string{
		metrics.Name("http_requests_total", "route", "POST /api/v1/sessions", "code", "201"),
		metrics.Name("http_requests_total", "route", "POST /api/v1/sessions/{id}/plans", "code", "202"),
	} {
		if snap.Counters[name] < 1 {
			t.Errorf("counter %s = %d, want >= 1", name, snap.Counters[name])
		}
	}
	if h, ok := snap.Histograms[metrics.Name("http_request_seconds", "route", "POST /api/v1/sessions/{id}/plans")]; !ok || h.Count < 1 {
		t.Errorf("plan-route latency histogram missing or empty: %+v", h)
	}

	// Run engine: one succeeded run, its queue wait observed, and one
	// duration histogram per plan stage.
	if got := snap.Counters[metrics.Name("runs_completed_total", "state", "succeeded")]; got != 1 {
		t.Errorf("succeeded runs = %d, want 1", got)
	}
	if h := snap.Histograms["runs_queue_wait_seconds"]; h.Count < 1 {
		t.Errorf("queue wait observations = %d, want >= 1", h.Count)
	}
	for _, stage := range []string{"bootstrap", "data-context", "feedback"} {
		name := metrics.Name("runs_stage_seconds", "stage", stage)
		if h, ok := snap.Histograms[name]; !ok || h.Count != 1 {
			t.Errorf("stage histogram %s count = %d, want 1", name, h.Count)
		}
	}
	if h := snap.Histograms["runs_duration_seconds"]; h.Count != 1 || h.P99 < 0 {
		t.Errorf("run duration histogram = %+v, want one observation", h)
	}

	// Session layer: one live session, one creation.
	if got := snap.Gauges["sessions_live"]; got != 1 {
		t.Errorf("sessions_live = %d, want 1", got)
	}
	if got := snap.Counters["sessions_created_total"]; got != 1 {
		t.Errorf("sessions_created_total = %d, want 1", got)
	}
}

// TestHealthzFoldsMetrics checks the health document carries the metrics
// roll-up next to the run stats, including the new high-water field.
func TestHealthzFoldsMetrics(t *testing.T) {
	_, ts := testServer(t)
	createSession(t, ts, "")
	doc := getJSON(t, ts.URL+"/api/v1/healthz")
	m, ok := doc["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no metrics roll-up: %v", doc)
	}
	// healthz itself is in flight, so only the create is guaranteed counted.
	if n := m["http_requests_total"].(float64); n < 1 {
		t.Errorf("rolled-up http_requests_total = %v, want >= 1", n)
	}
	if errs := m["http_errors_total"].(float64); errs != 0 {
		t.Errorf("http_errors_total = %v, want 0", errs)
	}
	rs, ok := doc["run_stats"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no run_stats: %v", doc)
	}
	if _, ok := rs["queued_high_water"]; !ok {
		t.Errorf("run_stats missing queued_high_water: %v", rs)
	}
}

// TestMetriczCountsUnmatchedRoutes checks requests that miss the route
// table still land in a bounded label.
func TestMetriczCountsUnmatchedRoutes(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	snap := getMetricz(t, ts)
	name := metrics.Name("http_requests_total", "route", "(unmatched)", "code", "404")
	if snap.Counters[name] != 1 {
		t.Fatalf("unmatched counter = %d, want 1", snap.Counters[name])
	}
}

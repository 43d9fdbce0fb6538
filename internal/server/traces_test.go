package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vada/internal/metrics"
	"vada/internal/session"
	"vada/internal/trace"
)

// tracedServer hosts the full New() wiring — tracer, journal durability,
// runtime sampler — the way cmd/vada-server does, so trace tests exercise
// the same span tree production pays for.
func tracedServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{RunWorkers: 2, DataDir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	return serve(t, cfg)
}

// postJSON POSTs a body and returns the response (caller closes).
func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitTerminal polls a run's Location until it leaves queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, loc string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + loc)
		if err != nil {
			t.Fatal(err)
		}
		var run struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&run)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch run.State {
		case "succeeded", "failed", "cancelled":
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %s never reached a terminal state", loc)
}

// flattenTree walks a span tree depth-first, collecting span names.
func flattenTree(nodes []*trace.Node, into map[string][]*trace.Node) {
	for _, n := range nodes {
		into[n.Name] = append(into[n.Name], n)
		flattenTree(n.Children, into)
	}
}

// getTree fetches GET /api/v1/traces/{tid} and returns the parsed forest.
func getTree(t *testing.T, ts *httptest.Server, tid string) []*trace.Node {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/traces/" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET traces/%s: %s", tid, resp.Status)
	}
	var out struct {
		TraceID string        `json:"trace_id"`
		Spans   []*trace.Node `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != tid {
		t.Fatalf("tree names trace %q, want %q", out.TraceID, tid)
	}
	return out.Spans
}

// TestTracePlanSpanTree is the tentpole acceptance path: one plan POST
// yields a retrievable span tree carrying the HTTP root, the queue wait,
// one span per plan stage and the fsynced journal append of the run's record.
func TestTracePlanSpanTree(t *testing.T) {
	_, ts := tracedServer(t, nil)
	id := createSession(t, ts, `{"n":30}`)

	resp := postJSON(t, ts.URL+"/api/v1/sessions/"+id+"/plans",
		`{"stages":[{"stage":"bootstrap"},{"stage":"data-context"}]}`)
	loc := resp.Header.Get("Location")
	tp := resp.Header.Get("Traceparent")
	reqID := resp.Header.Get("X-Request-Id")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan: %s", resp.Status)
	}
	if reqID == "" {
		t.Fatal("no X-Request-Id on the plan response")
	}
	tid, _, ok := trace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("plan response Traceparent %q does not parse", tp)
	}
	waitTerminal(t, ts, loc)

	byName := map[string][]*trace.Node{}
	flattenTree(getTree(t, ts, tid), byName)

	roots := byName["http POST"]
	if len(roots) != 1 {
		t.Fatalf("want 1 http POST root span, got %d (names: %v)", len(roots), keys(byName))
	}
	root := roots[0]
	if root.Attrs["request_id"] != reqID {
		t.Errorf("root request_id = %q, want %q", root.Attrs["request_id"], reqID)
	}
	if root.Attrs["route"] != "POST /api/v1/sessions/{id}/plans" {
		t.Errorf("root route = %q", root.Attrs["route"])
	}
	if len(byName["run"]) != 1 {
		t.Fatalf("want 1 run span, got %d", len(byName["run"]))
	}
	run := byName["run"][0]
	if run.ParentID != root.SpanID {
		t.Errorf("run span parent = %q, want the http root %q", run.ParentID, root.SpanID)
	}
	if run.Attrs["session"] != id {
		t.Errorf("run span session = %q, want %q", run.Attrs["session"], id)
	}
	if run.Attrs["plan"] != "bootstrap,data-context" {
		t.Errorf("run span plan = %q", run.Attrs["plan"])
	}
	if run.Attrs["state"] != "succeeded" {
		t.Errorf("run span state = %q", run.Attrs["state"])
	}
	if len(byName["queue-wait"]) != 1 {
		t.Errorf("want 1 queue-wait span, got %d", len(byName["queue-wait"]))
	}
	for _, stage := range []string{"stage:bootstrap", "stage:data-context"} {
		spans := byName[stage]
		if len(spans) != 1 {
			t.Fatalf("want 1 %s span, got %d", stage, len(spans))
		}
		if spans[0].ParentID != run.SpanID {
			t.Errorf("%s parent = %q, want the run span %q", stage, spans[0].ParentID, run.SpanID)
		}
	}
	// Journaling is on, so the run fsyncs its one record in an append under
	// the run span, after its stages.
	appends := byName["journal.append"]
	if len(appends) != 1 {
		t.Fatalf("want one journal.append span in the tree, got %d (names: %v)", len(appends), keys(byName))
	}
	if appends[0].ParentID != run.SpanID || appends[0].Attrs["stages"] != "2" || appends[0].Attrs["seq"] != "1" {
		t.Errorf("journal.append = parent %q, attrs %v; want the run span %q, stages 2, seq 1",
			appends[0].ParentID, appends[0].Attrs, run.SpanID)
	}

	// The listing resolves the same trace by session filter.
	resp2, err := http.Get(ts.URL + "/api/v1/traces?session=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var listing struct {
		Traces []trace.Summary `json:"traces"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sum := range listing.Traces {
		found = found || sum.TraceID == tid
	}
	if !found {
		t.Fatalf("trace %s missing from ?session=%s listing (%d traces)", tid, id, len(listing.Traces))
	}
}

func keys(m map[string][]*trace.Node) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTraceInboundTraceparent checks W3C interop: a request carrying a
// valid traceparent joins that trace (same trace ID out, remote span as the
// root's parent) — even on a GET, which is otherwise unsampled.
func TestTraceInboundTraceparent(t *testing.T) {
	_, ts := tracedServer(t, nil)
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const parent = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", "00-"+tid+"-"+parent+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	gotTID, _, ok := trace.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || gotTID != tid {
		t.Fatalf("response Traceparent %q does not continue trace %s", resp.Header.Get("Traceparent"), tid)
	}
	tree := getTree(t, ts, tid)
	if len(tree) != 1 {
		t.Fatalf("want 1 root (remote parent is not retained), got %d", len(tree))
	}
	if tree[0].ParentID != parent {
		t.Errorf("root parent = %q, want the inbound span %q", tree[0].ParentID, parent)
	}

	// Plain GETs without a traceparent stay unsampled: no root span, no
	// Traceparent response header — but still a request ID.
	resp2, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("Traceparent"); got != "" {
		t.Errorf("unsampled GET answered Traceparent %q", got)
	}
	if resp2.Header.Get("X-Request-Id") == "" {
		t.Error("unsampled GET lost its X-Request-Id")
	}
}

// syncBuffer is a goroutine-safe log sink for handler-under-test output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestSlowRunLogged checks the slow-span warning against the tracer's 2 s
// threshold: a stage run that waits that long behind a held run of its
// session leaves structured warnings, carrying its trace ID, in the
// server's log.
func TestSlowRunLogged(t *testing.T) {
	t.Parallel() // it waits out the threshold
	buf := &syncBuffer{}
	s, ts := tracedServer(t, func(cfg *Config) {
		cfg.Logger = slog.New(slog.NewTextHandler(buf, nil))
	})
	id := createSession(t, ts, "")
	release := make(chan struct{})
	if _, err := s.runs.Submit(context.Background(), id, "hold", func(ctx context.Context) (session.Event, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return session.Event{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(2500*time.Millisecond, func() { close(release) })
	resp := postJSON(t, ts.URL+"/api/v1/sessions/"+id+"/stages/bootstrap?async=1", `{}`)
	tp, loc := resp.Header.Get("Traceparent"), resp.Header.Get("Location")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bootstrap: %s", resp.Status)
	}
	tid, _, ok := trace.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("no Traceparent on the stage response (got %q)", tp)
	}
	waitTerminal(t, ts, loc)
	logs := buf.String()
	if !strings.Contains(logs, "slow span") {
		t.Fatalf("no slow-span warning in logs:\n%s", logs)
	}
	if !strings.Contains(logs, "trace_id="+tid) {
		t.Errorf("slow-span warnings do not carry trace %s:\n%s", tid, logs)
	}
	if !strings.Contains(logs, "span=queue-wait") {
		t.Errorf("no queue-wait slow-span warning:\n%s", logs)
	}
}

// TestMetriczPrometheus checks the text exposition branch of metricz and
// that JSON stays the default.
func TestMetriczPrometheus(t *testing.T) {
	_, ts := tracedServer(t, nil)
	// Prime at least one counted request.
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	prom, err := http.Get(ts.URL + "/api/v1/metricz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	if ct := prom.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus Content-Type = %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(prom.Body); err != nil {
		t.Fatal(err)
	}
	text := body.String()
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",route="GET /api/v1/healthz"}`,
		"# TYPE runtime_goroutines gauge",
		"# TYPE http_request_seconds histogram",
		"http_request_seconds_bucket{",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Accept: text/plain selects the same branch; the default stays JSON.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/metricz", nil)
	req.Header.Set("Accept", "text/plain")
	viaAccept, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	viaAccept.Body.Close()
	if ct := viaAccept.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Accept: text/plain Content-Type = %q", ct)
	}
	asJSON, err := http.Get(ts.URL + "/api/v1/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer asJSON.Body.Close()
	if ct := asJSON.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default metricz Content-Type = %q", ct)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(asJSON.Body).Decode(&snap); err != nil {
		t.Fatalf("default metricz is not the JSON snapshot: %v", err)
	}
}

// TestHealthzRuntime checks the runtime roll-up: the sampler's goroutine
// and heap gauges surface in the health probe.
func TestHealthzRuntime(t *testing.T) {
	_, ts := tracedServer(t, nil)
	resp, err := http.Get(ts.URL + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Runtime struct {
			Goroutines     int64 `json:"goroutines"`
			HeapInuseBytes int64 `json:"heap_inuse_bytes"`
		} `json:"runtime"`
		Traces *int `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Runtime.Goroutines <= 0 {
		t.Errorf("healthz runtime.goroutines = %d, want > 0", out.Runtime.Goroutines)
	}
	if out.Runtime.HeapInuseBytes <= 0 {
		t.Errorf("healthz runtime.heap_inuse_bytes = %d, want > 0", out.Runtime.HeapInuseBytes)
	}
	if out.Traces == nil {
		t.Error("healthz omits the trace count")
	}
}

// TestPprofGated checks /debug/pprof/ exists exactly when Config.Pprof is
// set.
func TestPprofGated(t *testing.T) {
	for _, on := range []bool{true, false} {
		_, ts := tracedServer(t, func(cfg *Config) { cfg.Pprof = on })
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if on {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("pprof=%v: GET /debug/pprof/ = %d, want %d", on, resp.StatusCode, want)
		}
	}
}

// TestTraceparentEchoFormat pins the outbound header shape so external
// tracers can rely on it.
func TestTraceparentEchoFormat(t *testing.T) {
	_, ts := tracedServer(t, nil)
	resp := postJSON(t, ts.URL+"/api/v1/sessions", `{"n":30}`)
	resp.Body.Close()
	tp := resp.Header.Get("Traceparent")
	parts := strings.Split(tp, "-")
	if len(parts) != 4 || parts[0] != "00" || len(parts[1]) != 32 || len(parts[2]) != 16 || parts[3] != "01" {
		t.Fatalf("Traceparent %q is not 00-<32hex>-<16hex>-01", tp)
	}
	if _, _, ok := trace.ParseTraceparent(tp); !ok {
		t.Fatalf("own Traceparent %q does not round-trip ParseTraceparent", tp)
	}
}

// TestRequestIDAdopted checks X-Request-Id propagation: a client-supplied
// ID is echoed; an absent one is minted.
func TestRequestIDAdopted(t *testing.T) {
	_, ts := tracedServer(t, nil)
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/healthz", nil)
	req.Header.Set("X-Request-Id", "client-chosen-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-chosen-7" {
		t.Errorf("X-Request-Id = %q, want the client's", got)
	}
	// Oversize IDs are replaced, bounding the log field.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/healthz", nil)
	req2.Header.Set("X-Request-Id", strings.Repeat("x", 200))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) > 64 || got == "" {
		t.Errorf("oversize X-Request-Id not replaced (got %d bytes)", len(got))
	}
}

// TestSyncStageTraced covers the synchronous stage route: a stage POST is a
// run the request waits on, so its trace takes the one span path every stage
// takes — http root → run → queue-wait, stage and journal.append — and the
// run is listed, succeeded, among the session's runs.
func TestSyncStageTraced(t *testing.T) {
	_, ts := tracedServer(t, nil)
	id := createSession(t, ts, "")
	resp := postJSON(t, ts.URL+"/api/v1/sessions/"+id+"/stages/bootstrap", `{}`)
	tp := resp.Header.Get("Traceparent")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bootstrap: %s", resp.Status)
	}
	tid, _, _ := trace.ParseTraceparent(tp)
	byName := map[string][]*trace.Node{}
	flattenTree(getTree(t, ts, tid), byName)
	roots, runs, waits := byName["http POST"], byName["run"], byName["queue-wait"]
	if len(roots) != 1 || len(runs) != 1 || len(waits) != 1 {
		t.Fatalf("want one http root, run and queue-wait span (names: %v)", keys(byName))
	}
	if runs[0].ParentID != roots[0].SpanID || waits[0].ParentID != runs[0].SpanID {
		t.Errorf("the run span is not the http root's child, or the queue wait not the run's")
	}
	stages := byName["stage:bootstrap"]
	if len(stages) != 1 || stages[0].ParentID != runs[0].SpanID {
		t.Fatalf("want one stage:bootstrap span under the run span (names: %v)", keys(byName))
	}
	appends := byName["journal.append"]
	if len(appends) != 1 || appends[0].ParentID != runs[0].SpanID {
		t.Errorf("want one journal.append span under the run span, got %d", len(appends))
	}

	resp2, err := http.Get(ts.URL + "/api/v1/sessions/" + id + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Runs []struct {
			Stage string `json:"stage"`
			State string `json:"state"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Runs) != 1 || list.Runs[0].Stage != "bootstrap" || list.Runs[0].State != "succeeded" {
		t.Fatalf("runs = %+v, want the sync bootstrap, succeeded", list.Runs)
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/store"
)

// What the store names its files; the server itself no longer knows.
const (
	snapshotExt   = store.SnapshotExt
	journalExt    = ".vjournal"
	closedDirName = "closed"
)

// testServer serves the server vada-server runs with its flags at their
// defaults: New over a zero Config, ephemeral, with a quiet logger.
func testServer(t *testing.T) (*Server, *httptest.Server) {
	return serve(t, Config{})
}

// serve builds the server New wires from cfg — the binary's wiring — with a
// quiet logger unless cfg names one, serves it, and closes both at the end.
func serve(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// testSessionBody is the create body behind createSession's empty one: the
// tests wrangle 60 properties, not the server's default of 300.
const testSessionBody = `{"n":60}`

// createSession POSTs /api/v1/sessions and returns the new session's ID.
func createSession(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	if body == "" {
		body = testSessionBody
	}
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %s", resp.Status)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	id, _ := st["id"].(string)
	if id == "" {
		t.Fatalf("create session: no id in %v", st)
	}
	return id
}

// post POSTs an empty body and decodes the 200 response; postBody sends a
// JSON payload — the wire form of every stage that takes one.
func post(t *testing.T, url string) map[string]any {
	t.Helper()
	return postBody(t, url, "")
}

func postBody(t *testing.T, url, payload string) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"name":"demo","n":60}`)
	base := ts.URL + "/api/v1/sessions/" + id

	// The result endpoint 404s before bootstrap.
	resp, _ := get(t, base+"/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pre-bootstrap result: %s", resp.Status)
	}

	// Step 1: bootstrap.
	out := post(t, base+"/stages/bootstrap")
	if out["stage"] != "bootstrap" {
		t.Fatalf("bootstrap response: %v", out)
	}
	// Step 2: data context (defaults to the scenario's reference data).
	out = post(t, base+"/stages/data-context")
	score := out["score"].(map[string]any)
	if score["F1"].(float64) <= 0 {
		t.Fatalf("data-context score: %v", score)
	}
	// Step 3: feedback.
	postBody(t, base+"/stages/feedback", `{"budget": 40}`)
	// Step 4: user context, both models.
	postBody(t, base+"/stages/user-context", `{"model": "crime"}`)
	postBody(t, base+"/stages/user-context", `{"model": "size"}`)

	// State lists all stage events.
	_, body := get(t, base)
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if events := st["events"].([]any); len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	if len(st["selected_mappings"].([]any)) == 0 {
		t.Fatal("no selected mappings in state")
	}

	// Paginated result rows.
	resp, body = get(t, base+"/result?limit=5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if rows := res["rows"].([]any); len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	next := int(res["next_offset"].(float64))
	_, body = get(t, fmt.Sprintf("%s/result?limit=5&offset=%d", base, next))
	var page2 map[string]any
	if err := json.Unmarshal([]byte(body), &page2); err != nil {
		t.Fatal(err)
	}
	if page2["offset"].(float64) != float64(next) {
		t.Fatalf("page 2 offset = %v, want %d", page2["offset"], next)
	}
	if fmt.Sprint(page2["rows"].([]any)[0]) == fmt.Sprint(res["rows"].([]any)[0]) {
		t.Fatal("page 2 repeats page 1")
	}

	// Trace is non-empty text, and says why ready transducers did not run:
	// one line per stage that skipped any.
	resp, body = get(t, base+"/trace")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "web-extraction") {
		t.Fatalf("trace: %s / %q...", resp.Status, body[:60])
	}
	if n := strings.Count(body, "\nskipped (inputs unchanged): "); n < 3 || n > 5 {
		t.Fatalf("trace of five stages has %d skipped lines:\n%s", n, body)
	}

	// The same accounting as counters.
	_, body = get(t, ts.URL+"/api/v1/metricz?format=prometheus")
	for _, series := range []string{
		`wrangle_steps_total{changed="true",transducer="duplicate-fusion"}`,
		`wrangle_steps_skipped_total{transducer="schema-matching"}`,
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metricz lacks %s", series)
		}
	}

	// The listing shows the session.
	_, body = get(t, ts.URL+"/api/v1/sessions")
	var list map[string]any
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list["total"].(float64) != 1 {
		t.Fatalf("session list: %v", list)
	}

	// Close the session; it is gone afterwards.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %s", dresp.Status)
	}
	resp, _ = get(t, base)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("state after delete: %s", resp.Status)
	}

	// Index page serves the session-aware UI.
	resp, body = get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "/api/v1/sessions") {
		t.Fatal("index page broken")
	}
}

// TestConcurrentSessions drives two sessions through all four pay-as-you-go
// steps in parallel — the multi-tenant claim, checked under -race.
func TestConcurrentSessions(t *testing.T) {
	_, ts := testServer(t)
	ids := []string{
		createSession(t, ts, `{"name":"a","n":50,"seed":1}`),
		createSession(t, ts, `{"name":"b","n":50,"seed":2}`),
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(ids))
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			base := ts.URL + "/api/v1/sessions/" + id
			for _, step := range [][2]string{{"bootstrap", ""}, {"data-context", ""},
				{"feedback", `{"budget": 20}`}, {"user-context", `{"model": "crime"}`}} {
				resp, err := http.Post(base+"/stages/"+step[0], "application/json", strings.NewReader(step[1]))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("session %s step %s: %s", id, step[0], resp.Status)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range ids {
		_, body := get(t, ts.URL+"/api/v1/sessions/"+id)
		var st map[string]any
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if events := st["events"].([]any); len(events) != 4 {
			t.Fatalf("session %s: %d events, want 4", id, len(events))
		}
		if st["result_rows"].(float64) <= 0 {
			t.Fatalf("session %s: empty result", id)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := testServer(t)

	// Unknown session IDs 404 everywhere.
	resp, _ := get(t, ts.URL+"/api/v1/sessions/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id state: %s", resp.Status)
	}
	presp, err := http.Post(ts.URL+"/api/v1/sessions/nope/stages/bootstrap", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id bootstrap: %s", presp.Status)
	}

	// Malformed create config is a 400.
	cresp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad create JSON: %s", cresp.Status)
	}

	// Unknown user-context model is a 400.
	id := createSession(t, ts, "")
	uresp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/stages/user-context", "application/json",
		strings.NewReader(`{"model": "nonsense"}`))
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model: %s", uresp.Status)
	}

	// Malformed feedback JSON is a 400.
	fresp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/stages/feedback", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad feedback JSON: %s", fresp.Status)
	}

	// Deleting twice: second delete 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+id, nil)
	d1, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	d1.Body.Close()
	d2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	d2.Body.Close()
	if d2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %s", d2.Status)
	}
}

func TestSessionCap(t *testing.T) {
	_, ts := serve(t, Config{MaxSessions: 1})
	createSession(t, ts, `{"n":30}`)
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(`{"n":30}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over cap: %s", resp.Status)
	}
}

func TestExplicitFeedbackJSON(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id
	post(t, base+"/stages/bootstrap")

	sess, err := s.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	si := res.Schema.AttrIndex("street")
	pi := res.Schema.AttrIndex("postcode")
	item := map[string]any{
		"Street":   res.Tuples[0][si].String(),
		"Postcode": res.Tuples[0][pi].String(),
		"Attr":     "bedrooms",
		"Correct":  true,
	}
	body, _ := json.Marshal(map[string]any{"items": []map[string]any{item}})
	if ev := postBody(t, base+"/stages/feedback", string(body)); ev["stage"] != "feedback" {
		t.Fatalf("explicit feedback: %v", ev)
	}
}

// pollRun GETs a run URL until the run reaches a terminal state.
func pollRun(t *testing.T, url string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, body := get(t, url)
		var run map[string]any
		if err := json.Unmarshal([]byte(body), &run); err != nil {
			t.Fatalf("run JSON %q: %v", body, err)
		}
		switch run["state"] {
		case "succeeded", "failed", "cancelled":
			return run
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("run never reached a terminal state")
	return nil
}

// TestAsyncStageFlow is the scripted acceptance flow: an async bootstrap
// answers 202 with a pollable run resource in well under the stage's own
// runtime, the run reaches succeeded with the stage event attached, and the
// run list exposes it.
func TestAsyncStageFlow(t *testing.T) {
	_, ts := testServer(t)

	// The 202 must come back in well under the stage's own runtime. The
	// submit is a queue append, so <50ms holds with margin; retry on fresh
	// sessions to ride out scheduler/GC stalls on loaded CI runners.
	var id string
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		id = createSession(t, ts, `{"name":"async","n":60}`)
		start := time.Now()
		var err error
		resp, err = http.Post(ts.URL+"/api/v1/sessions/"+id+"/stages/bootstrap?async=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async bootstrap: %s, want 202", resp.Status)
		}
		if elapsed < 50*time.Millisecond {
			break
		}
		resp.Body.Close()
		if attempt == 2 {
			t.Fatalf("async submit blocked for %v on %d attempts, want <50ms", elapsed, attempt+1)
		}
	}
	base := ts.URL + "/api/v1/sessions/" + id
	defer resp.Body.Close()
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/api/v1/sessions/"+id+"/runs/") {
		t.Fatalf("Location = %q", loc)
	}
	var run map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		t.Fatal(err)
	}
	if st := run["state"]; st != "queued" && st != "running" {
		t.Fatalf("submitted run state = %v", st)
	}

	final := pollRun(t, ts.URL+loc)
	if final["state"] != "succeeded" {
		t.Fatalf("run finished as %v (%v)", final["state"], final["error"])
	}
	ev, ok := final["event"].(map[string]any)
	if !ok || ev["stage"] != "bootstrap" {
		t.Fatalf("run event = %v, want bootstrap stage event", final["event"])
	}

	// A second async stage queues behind nothing and also succeeds.
	resp2, err := http.Post(base+"/stages/data-context?async=true", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("async datacontext: %s", resp2.Status)
	}
	final2 := pollRun(t, ts.URL+resp2.Header.Get("Location"))
	if final2["state"] != "succeeded" {
		t.Fatalf("datacontext run: %v (%v)", final2["state"], final2["error"])
	}

	// The run list shows both runs in submission order.
	_, body := get(t, base+"/runs")
	var list map[string]any
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list["total"].(float64) != 2 {
		t.Fatalf("run list: %v", list)
	}
	runs := list["runs"].([]any)
	if runs[0].(map[string]any)["stage"] != "bootstrap" ||
		runs[1].(map[string]any)["stage"] != "data-context" {
		t.Fatalf("run order: %v", runs)
	}

	// Both stage events landed on the session.
	_, body = get(t, base)
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if events := st["events"].([]any); len(events) != 2 {
		t.Fatalf("session events = %d, want 2", len(events))
	}
}

// TestRunCancelInFlight drives HTTP cancellation of a deterministically
// blocked run: DELETE answers 202 and polling reaches state cancelled.
func TestRunCancelInFlight(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	started := make(chan struct{})
	run, err := s.runs.Submit(context.Background(), id, "blocking", func(ctx context.Context) (session.Event, error) {
		close(started)
		<-ctx.Done()
		return session.Event{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the run is in flight

	req, _ := http.NewRequest(http.MethodDelete, base+"/runs/"+run.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s, want 202", resp.Status)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap["cancel_requested"] != true {
		t.Fatalf("cancel response: %v", snap)
	}
	final := pollRun(t, base+"/runs/"+run.ID)
	if final["state"] != "cancelled" {
		t.Fatalf("state after cancel = %v, want cancelled", final["state"])
	}

	// A queued run cancels immediately.
	started2 := make(chan struct{})
	blocker, err := s.runs.Submit(context.Background(), id, "blocking", func(ctx context.Context) (session.Event, error) {
		close(started2)
		<-ctx.Done()
		return session.Event{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started2
	queued, err := s.runs.Submit(context.Background(), id, "queued-stage", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	req2, _ := http.NewRequest(http.MethodDelete, base+"/runs/"+queued.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var qsnap map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&qsnap); err != nil {
		t.Fatal(err)
	}
	if qsnap["state"] != "cancelled" {
		t.Fatalf("queued cancel state = %v, want cancelled", qsnap["state"])
	}
	if _, err := s.runs.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}

	// Closing the session cancels whatever is still live.
	started3 := make(chan struct{})
	live, err := s.runs.Submit(context.Background(), id, "blocking", func(ctx context.Context) (session.Event, error) {
		close(started3)
		<-ctx.Done()
		return session.Event{}, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started3
	dreq, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := s.runs.Get(live.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == runs.StateCancelled {
			break
		}
		if !got.State.Terminal() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.Fatalf("run after session close: %s", got.State)
	}

	// Retained runs of the closed session stay listable and pollable, so
	// clients can still collect outcomes from their 202 Location URLs.
	_, body := get(t, base+"/runs")
	var list map[string]any
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list["total"].(float64) == 0 {
		t.Fatalf("closed session's retained runs not listable: %v", list)
	}
	resp3, _ := get(t, base+"/runs/"+live.ID)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("poll retained run after close: %s", resp3.Status)
	}
}

func TestRunNotFoundPaths(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, "")
	otherID := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	// Unknown run IDs 404.
	resp, _ := get(t, base+"/runs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %s", resp.Status)
	}
	// A run of one session is invisible under another session's path.
	run, err := s.runs.Submit(context.Background(), otherID, "b", func(ctx context.Context) (session.Event, error) {
		return session.Event{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, _ = get(t, base+"/runs/"+run.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-session run probe: %s", resp.Status)
	}
	// Run listing of an unknown session 404s.
	resp, _ = get(t, ts.URL+"/api/v1/sessions/nope/runs")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("runs of unknown session: %s", resp.Status)
	}
}

// sseConn opens an SSE stream and returns a line reader over it.
func sseConn(t *testing.T, url string, lastEventID string) (*bufio.Scanner, func()) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		t.Fatalf("SSE connect: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		cancel()
		t.Fatalf("SSE content type: %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	return sc, func() { resp.Body.Close(); cancel() }
}

// readSSEStage reads frames until one stage event arrives, returning its id
// and decoded data. ok=false means the stream ended first.
func readSSEStage(t *testing.T, sc *bufio.Scanner) (id string, data map[string]any, ok bool) {
	t.Helper()
	isStage := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case line == "event: stage":
			isStage = true
		case strings.HasPrefix(line, "data: ") && isStage:
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &data); err != nil {
				t.Fatalf("SSE data: %v", err)
			}
			return id, data, true
		case line == "": // frame boundary
			isStage = false
		}
	}
	return "", nil, false
}

// TestSSEEvents checks the streaming contract: a connected client receives
// the bootstrap event without polling, a late subscriber gets it replayed
// from history, Last-Event-ID skips already-seen events, and closing the
// session ends the stream.
func TestSSEEvents(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	// Live delivery: subscribe first, then run the stage asynchronously.
	sc1, close1 := sseConn(t, base+"/events", "")
	defer close1()
	resp, err := http.Post(base+"/stages/bootstrap?async=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async bootstrap: %s", resp.Status)
	}
	evID, data, ok := readSSEStage(t, sc1)
	if !ok || data["stage"] != "bootstrap" || evID != "1" {
		t.Fatalf("live SSE event: ok=%v id=%q data=%v", ok, evID, data)
	}

	// Replay: a fresh connection receives the bootstrap from history.
	sc2, close2 := sseConn(t, base+"/events", "")
	_, data2, ok := readSSEStage(t, sc2)
	if !ok || data2["stage"] != "bootstrap" {
		t.Fatalf("replayed SSE event: ok=%v data=%v", ok, data2)
	}

	// Resume: Last-Event-ID 1 skips the bootstrap; the next event seen is
	// the data-context stage.
	sc3, close3 := sseConn(t, base+"/events", "1")
	defer close3()
	if _, err := http.Post(base+"/stages/data-context", "", nil); err != nil {
		t.Fatal(err)
	}
	evID3, data3, ok := readSSEStage(t, sc3)
	if !ok || data3["stage"] != "data-context" || evID3 != "2" {
		t.Fatalf("resumed SSE event: ok=%v id=%q data=%v", ok, evID3, data3)
	}

	// Closing the session terminates connection 2's stream.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	for {
		_, _, ok := readSSEStage(t, sc2)
		if !ok {
			break // stream ended
		}
	}
	close2()
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	createSession(t, ts, "")
	resp, body := get(t, ts.URL+"/api/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s", resp.Status)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["sessions"].(float64) != 1 {
		t.Fatalf("healthz body: %v", h)
	}
	stats, ok := h["run_stats"].(map[string]any)
	if !ok || stats["workers"].(float64) <= 0 {
		t.Fatalf("healthz run stats: %v", h["run_stats"])
	}
}

func TestStageDiscovery(t *testing.T) {
	_, ts := testServer(t)
	resp, body := get(t, ts.URL+"/api/v1/stages")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage discovery: %s", resp.Status)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out["total"].(float64) != 9 {
		t.Fatalf("discovery total = %v", out["total"])
	}
	stages := out["stages"].([]any)
	want := []string{"bootstrap", "data-context", "feedback", "user-context",
		"ingest", "fetch", "export", "quality-report", "feedback-batch"}
	for i, w := range want {
		st := stages[i].(map[string]any)
		if st["name"] != w || st["description"] == "" {
			t.Fatalf("stage %d = %v, want %q with description", i, st, w)
		}
		// Every payload-taking stage documents its fields; bootstrap is the
		// only payload-less stage.
		if w == "bootstrap" {
			if _, ok := st["payload"]; ok {
				t.Fatalf("bootstrap documents a payload: %v", st)
			}
			continue
		}
		fields, ok := st["payload"].([]any)
		if !ok || len(fields) == 0 {
			t.Fatalf("stage %q has no payload field docs: %v", w, st)
		}
		for _, f := range fields {
			fm := f.(map[string]any)
			if fm["name"] == "" || fm["doc"] == "" {
				t.Fatalf("stage %q field undocumented: %v", w, fm)
			}
		}
	}
}

// TestGenericStageRoutes drives the whole lifecycle through the uniform
// POST .../stages/{name} route with JSON payloads — the legacy aliases are
// no longer load-bearing.
func TestGenericStageRoutes(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	postStage := func(name, payload string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(base+"/stages/"+name, "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	steps := []struct{ name, payload, wantStage string }{
		{"bootstrap", "", "bootstrap"},
		{"data-context", "", "data-context"},
		{"feedback", `{"budget": 20}`, "feedback"},
		{"user-context", `{"model": "size"}`, "user-context"},
	}
	for _, step := range steps {
		resp, body := postStage(step.name, step.payload)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stage %s: %s (%s)", step.name, resp.Status, body)
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(body), &ev); err != nil {
			t.Fatal(err)
		}
		if ev["stage"] != step.wantStage || ev["type"] != "stage" {
			t.Fatalf("stage %s event = %v", step.name, ev)
		}
	}

	// Error paths: unknown stage, undecodable payloads, payload on a
	// payload-less stage — uniform 400s.
	for _, bad := range []struct{ name, payload string }{
		{"nope", ""},
		{"feedback", `{"budgte": 20}`},
		{"feedback", `{`},
		{"user-context", `{"model": "nonsense"}`},
		{"bootstrap", `{"x": 1}`},
	} {
		resp, _ := postStage(bad.name, bad.payload)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("stage %s with payload %q: %s, want 400", bad.name, bad.payload, resp.Status)
		}
	}

	// The async flow works through the generic route too.
	resp, err := http.Post(base+"/stages/feedback?async=1", "application/json", strings.NewReader(`{"budget": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async generic stage: %s", resp.Status)
	}
	final := pollRun(t, ts.URL+resp.Header.Get("Location"))
	if final["state"] != "succeeded" {
		t.Fatalf("async generic run: %v (%v)", final["state"], final["error"])
	}

	// An undecodable payload is rejected at submit even with ?async=1 —
	// no run resource is created for a request that can never apply.
	resp2, err := http.Post(base+"/stages/feedback?async=1", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("async bad payload: %s, want 400", resp2.Status)
	}
}

// sseFrame is one parsed server-sent event.
type sseFrame struct {
	event string
	id    string
	data  map[string]any
}

// readSSEFrame reads the next complete frame with a data line; ok=false
// means the stream ended.
func readSSEFrame(t *testing.T, sc *bufio.Scanner) (sseFrame, bool) {
	t.Helper()
	var f sseFrame
	hasData := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ":"): // comment / keep-alive
		case strings.HasPrefix(line, "id: "):
			f.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			f.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f.data); err != nil {
				t.Fatalf("SSE data %q: %v", line, err)
			}
			hasData = true
		case line == "":
			if hasData {
				return f, true
			}
			f = sseFrame{}
		}
	}
	return sseFrame{}, false
}

// TestPlanFlow is the scripted acceptance flow: a 3-stage plan submitted
// via POST .../plans runs as one Run whose queued → running → per-stage →
// succeeded transitions arrive over the session SSE stream, interleaved
// with the stage events themselves.
func TestPlanFlow(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	sc, closeSSE := sseConn(t, base+"/events", "")
	defer closeSSE()

	plan := `{"stages": [
		{"stage": "bootstrap"},
		{"stage": "data-context"},
		{"stage": "feedback", "payload": {"budget": 20}}
	]}`
	resp, err := http.Post(base+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("plan submit: %s (%s)", resp.Status, b)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/api/v1/sessions/"+id+"/runs/") {
		t.Fatalf("plan Location = %q", loc)
	}
	var submitted map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	if plan, ok := submitted["plan"].([]any); !ok || len(plan) != 3 {
		t.Fatalf("submitted plan run = %v", submitted)
	}

	// Collect transitions and stage events off the single SSE stream until
	// the run reaches a terminal state.
	var transitions []string
	var stages []string
	for {
		f, ok := readSSEFrame(t, sc)
		if !ok {
			t.Fatalf("stream ended early: transitions=%v stages=%v", transitions, stages)
		}
		switch f.event {
		case "stage":
			stages = append(stages, f.data["stage"].(string))
		case "transition":
			tr := f.data["run"].(map[string]any)
			transitions = append(transitions,
				fmt.Sprintf("%s@%d", tr["state"], int(tr["stage_index"].(float64))))
			if st := tr["state"]; st == "succeeded" || st == "failed" || st == "cancelled" {
				goto done
			}
		}
	}
done:
	wantTr := []string{"queued@0", "running@0", "running@1", "running@2", "succeeded@2"}
	if strings.Join(transitions, " ") != strings.Join(wantTr, " ") {
		t.Fatalf("transitions = %v, want %v", transitions, wantTr)
	}
	wantStages := []string{"bootstrap", "data-context", "feedback"}
	if strings.Join(stages, " ") != strings.Join(wantStages, " ") {
		t.Fatalf("stage events = %v, want %v", stages, wantStages)
	}

	// The run resource records per-stage progress and all three events.
	final := pollRun(t, ts.URL+loc)
	if final["state"] != "succeeded" {
		t.Fatalf("plan run: %v (%v)", final["state"], final["error"])
	}
	if evs := final["events"].([]any); len(evs) != 3 {
		t.Fatalf("plan run events = %d, want 3", len(evs))
	}
	// And the session history has exactly the three stage events.
	_, body := get(t, base)
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if events := st["events"].([]any); len(events) != 3 {
		t.Fatalf("session events = %d, want 3", len(events))
	}
}

func TestPlanErrorPaths(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	for _, bad := range []struct{ name, body string }{
		{"malformed JSON", `{`},
		{"empty plan", `{"stages": []}`},
		{"unknown stage", `{"stages": [{"stage": "nope"}]}`},
		{"bad payload", `{"stages": [{"stage": "bootstrap"}, {"stage": "feedback", "payload": {"budgte": 1}}]}`},
		{"misspelled payload key", `{"stages": [{"stage": "feedback", "paylod": {"budget": 5}}]}`},
		{"trailing data", `{"stages": [{"stage": "bootstrap"}]}{"stages": [{"stage": "feedback"}]}`},
	} {
		resp, err := http.Post(base+"/plans", "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s, want 400", bad.name, resp.Status)
		}
	}
	// No runs were created for rejected plans.
	_, body := get(t, base+"/runs")
	var list map[string]any
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if list["total"].(float64) != 0 {
		t.Fatalf("rejected plans left runs behind: %v", list)
	}
	// Unknown sessions 404.
	resp, err := http.Post(ts.URL+"/api/v1/sessions/nope/plans", "application/json",
		strings.NewReader(`{"stages": [{"stage": "bootstrap"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("plan on unknown session: %s", resp.Status)
	}
}

// TestPlanMidFailureStops checks that a failing stage inside a plan stops
// the remaining stages: the run fails, completed events are kept, and the
// session history only has the stages that ran.
func TestPlanMidFailureStops(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	// The export of a relation the session does not have fails when it runs.
	plan := `{"stages": [{"stage": "bootstrap"}, {"stage": "export", "payload": {"relation": "nope"}}, {"stage": "feedback"}]}`
	resp, err := http.Post(base+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan submit: %s", resp.Status)
	}
	final := pollRun(t, ts.URL+resp.Header.Get("Location"))
	if final["state"] != "failed" || !strings.Contains(final["error"].(string), "nope") {
		t.Fatalf("plan run = %v (%v)", final["state"], final["error"])
	}
	if final["stage"] != "export" || final["stage_index"].(float64) != 1 {
		t.Fatalf("failure cursor = %v@%v", final["stage"], final["stage_index"])
	}
	if evs := final["events"].([]any); len(evs) != 1 {
		t.Fatalf("completed events = %d, want 1", len(evs))
	}
	// Only the bootstrap landed on the session; feedback never ran.
	_, body := get(t, base)
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if events := st["events"].([]any); len(events) != 1 {
		t.Fatalf("session events = %d, want 1", len(events))
	}
}

// TestPlanCancelMidway cancels an in-flight plan via the run resource:
// DELETE .../runs/{rid} answers 202 and the remaining stages never run.
func TestPlanCancelMidway(t *testing.T) {
	_, ts := testServer(t)
	// Stage 0 fetches from a local server that answers only once the
	// request is abandoned, so the fetch is in flight until the cancel.
	started := make(chan struct{})
	var once sync.Once
	slow := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(started) })
		<-r.Context().Done()
	}))
	t.Cleanup(slow.Close)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	plan := fmt.Sprintf(`{"stages": [{"stage": "fetch", "payload": {"url": %q, "relation": "r", "retries": -1}}, {"stage": "bootstrap"}]}`, slow.URL)
	resp, err := http.Post(base+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan submit: %s", resp.Status)
	}
	<-started // stage 0 is in flight
	loc := resp.Header.Get("Location")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+loc, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan cancel: %s, want 202", dresp.Status)
	}
	final := pollRun(t, ts.URL+loc)
	if final["state"] != "cancelled" {
		t.Fatalf("cancelled plan state = %v", final["state"])
	}
	// The bootstrap stage never ran: no session events.
	_, body := get(t, base)
	var st map[string]any
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if events, _ := st["events"].([]any); len(events) != 0 {
		t.Fatalf("session events after cancel = %d, want 0", len(events))
	}
}

// TestMethodNotAllowed audits verb handling across the whole /api/v1
// surface: unmatched methods answer 405 with a correct Allow header
// instead of mixed 404/405s.
func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		method, path string
		wantAllow    []string
	}{
		{http.MethodPost, "/", []string{"GET", "HEAD"}},
		{http.MethodPost, "/api/v1/healthz", []string{"GET", "HEAD"}},
		{http.MethodPost, "/api/v1/stages", []string{"GET", "HEAD"}},
		{http.MethodDelete, "/api/v1/sessions", []string{"GET", "HEAD", "POST"}},
		{http.MethodPost, "/api/v1/sessions/x", []string{"DELETE", "GET", "HEAD"}},
		{http.MethodGet, "/api/v1/sessions/x/stages/bootstrap", []string{"POST"}},
		{http.MethodGet, "/api/v1/sessions/x/plans", []string{"POST"}},
		{http.MethodPost, "/api/v1/sessions/x/result", []string{"GET", "HEAD"}},
		{http.MethodPost, "/api/v1/sessions/x/events", []string{"GET", "HEAD"}},
		{http.MethodDelete, "/api/v1/sessions/x/runs", []string{"GET", "HEAD"}},
		{http.MethodPost, "/api/v1/sessions/x/runs/r1", []string{"DELETE", "GET", "HEAD"}},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %s, want 405", c.method, c.path, resp.Status)
			continue
		}
		got := map[string]bool{}
		for _, m := range strings.Split(resp.Header.Get("Allow"), ",") {
			got[strings.TrimSpace(m)] = true
		}
		for _, m := range c.wantAllow {
			if !got[m] {
				t.Errorf("%s %s: Allow = %q, missing %s", c.method, c.path, resp.Header.Get("Allow"), m)
			}
		}
	}
	// Unknown paths stay 404.
	resp, _ := get(t, ts.URL+"/no/such/path")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %s, want 404", resp.Status)
	}
}

// TestSessionRunQueue429 checks run-engine fairness over HTTP: a session
// at the engine's pending-run cap (16) gets 429 with a Retry-After hint
// while other sessions keep submitting.
func TestSessionRunQueue429(t *testing.T) {
	s, ts := serve(t, Config{RunWorkers: 1})
	id := createSession(t, ts, "")
	other := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id

	// Occupy the only worker so subsequent submissions queue.
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.runs.Submit(context.Background(), id, "block", func(ctx context.Context) (session.Event, error) {
		close(started)
		select {
		case <-ctx.Done():
			return session.Event{}, ctx.Err()
		case <-release:
			return session.Event{}, nil
		}
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	// The pending runs up to the cap fit.
	asyncStage := func(base string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/stages/bootstrap?async=1", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	for i := 0; i < 16; i++ {
		if r := asyncStage(base); r.StatusCode != http.StatusAccepted {
			t.Fatalf("pending run %d: %s", i, r.Status)
		}
	}
	// The next exceeds it: 429 + Retry-After.
	r := asyncStage(base)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over session cap: %s, want 429", r.Status)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// So does a synchronous stage.
	rs, err := http.Post(base+"/stages/bootstrap", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	rs.Body.Close()
	if rs.StatusCode != http.StatusTooManyRequests || rs.Header.Get("Retry-After") == "" {
		t.Fatalf("sync stage over session cap: %s (Retry-After %q), want 429 with one", rs.Status, rs.Header.Get("Retry-After"))
	}
	// Plans hit the same cap.
	r3, err := http.Post(base+"/plans", "application/json",
		strings.NewReader(`{"stages": [{"stage": "bootstrap"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("plan over session cap: %s, want 429", r3.Status)
	}
	// An independent session is unaffected.
	if r := asyncStage(ts.URL + "/api/v1/sessions/" + other); r.StatusCode != http.StatusAccepted {
		t.Fatalf("independent session: %s", r.Status)
	}
}

// holdSession occupies the session's queue with a run that blocks until
// release is called or the run is cancelled.
func holdSession(t *testing.T, s *Server, id string) (release func()) {
	t.Helper()
	started, done := make(chan struct{}), make(chan struct{})
	if _, err := s.runs.Submit(context.Background(), id, "hold", func(ctx context.Context) (session.Event, error) {
		close(started)
		select {
		case <-done:
		case <-ctx.Done():
		}
		return session.Event{}, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// waitPending polls until n runs of the session wait in its queue.
func waitPending(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.runs.Stats().SessionPending[id] != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("session %s has %d runs pending, want %d", id, s.runs.Stats().SessionPending[id], n)
		}
	}
}

// answer is one response of a request made off the test goroutine.
type answer struct {
	status int
	body   map[string]any
	err    error
}

// postAsync POSTs an empty body from its own goroutine — a synchronous stage
// that waits in its session's queue — and delivers the response.
func postAsync(url string) <-chan answer {
	out := make(chan answer, 1)
	go func() {
		resp, err := http.Post(url, "application/json", nil)
		if err != nil {
			out <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		a := answer{status: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			a.err = json.NewDecoder(resp.Body).Decode(&a.body)
		}
		out <- a
	}()
	return out
}

// TestStagesRunInSubmissionOrder pins the one queue every stage of a session
// goes through: behind a held run, an async stage A is queued and then a
// synchronous stage B is posted; once the hold is released, A's event comes
// before B's — every one of twenty times.
func TestStagesRunInSubmissionOrder(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id
	post(t, base+"/stages/bootstrap")
	for i := 0; i < 20; i++ {
		release := holdSession(t, s, id)
		resp, err := http.Post(base+"/stages/user-context?async=1", "application/json", strings.NewReader(`{"model":"crime"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async stage A: %s", resp.Status)
		}
		b := postAsync(base + "/stages/quality-report")
		waitPending(t, s, id, 2)
		release()
		got := <-b
		if got.err != nil || got.status != http.StatusOK {
			t.Fatalf("sync stage B: %d (%v)", got.status, got.err)
		}
		a := pollRun(t, ts.URL+resp.Header.Get("Location"))
		if a["state"] != "succeeded" {
			t.Fatalf("stage A: %v (%v)", a["state"], a["error"])
		}
		if aSeq, bSeq := a["event"].(map[string]any)["seq"].(float64), got.body["seq"].(float64); aSeq > bSeq {
			t.Fatalf("try %d: B (seq %v) ran before A (seq %v), which was queued first", i, bSeq, aSeq)
		}
	}
}

// TestCancelledSyncStage: a synchronous stage whose run is cancelled while it
// waits answers 409 — cancelled by DELETE …/runs/{rid}, the run found in the
// session's run list, or by the server shutting down.
func TestCancelledSyncStage(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id
	release := holdSession(t, s, id)
	defer release()

	waiting := postAsync(base + "/stages/bootstrap")
	waitPending(t, s, id, 1)
	var rid string
	for _, r := range getJSON(t, base+"/runs")["runs"].([]any) {
		if run := r.(map[string]any); run["stage"] == "bootstrap" {
			rid = run["id"].(string)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/runs/"+rid, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %s", resp.Status)
	}
	if got := <-waiting; got.err != nil || got.status != http.StatusConflict {
		t.Fatalf("sync stage cancelled by DELETE: %d (%v), want 409", got.status, got.err)
	}

	waiting = postAsync(base + "/stages/bootstrap")
	waitPending(t, s, id, 1)
	s.Close()
	if got := <-waiting; got.err != nil || got.status != http.StatusConflict {
		t.Fatalf("sync stage cancelled by shutdown: %d (%v), want 409", got.status, got.err)
	}
}

// TestExportBetweenStages: an export is taken between two stages, never in
// the middle of one. A data-context stage is parked after its action has
// added the reference: the export does not answer until the stage is let go,
// and its envelope then holds both stages' events and the reference.
func TestExportBetweenStages(t *testing.T) {
	s, ts := testServer(t)
	id := createSession(t, ts, "")
	base := ts.URL + "/api/v1/sessions/" + id
	post(t, base+"/stages/bootstrap")
	sess, err := s.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	parked, resume := make(chan struct{}), make(chan struct{})
	if _, err := s.runs.Submit(context.Background(), id, session.StageDataContext, func(ctx context.Context) (session.Event, error) {
		return sess.Step(ctx, session.StageDataContext, func(w *core.Wrangler) error {
			w.AddDataContext(sess.Scenario().AddressRef)
			close(parked)
			<-resume
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	<-parked
	exported := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(base + "/export")
		if err != nil {
			exported <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		exported <- body
	}()
	select {
	case <-exported:
		close(resume)
		t.Fatal("the export answered while a stage was running")
	case <-time.After(100 * time.Millisecond):
	}
	close(resume)
	snap, err := store.ReadSessionSnapshot(bytes.NewReader(<-exported))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 2 || len(snap.KB.RelationNames(core.RelContextPrefix)) == 0 {
		t.Fatalf("the export holds %d events and context relations %v, want both stages and the reference",
			len(snap.Events), snap.KB.RelationNames(core.RelContextPrefix))
	}
}

// TestSSEKeepAlive checks the proxy-hardening contract: an idle event
// stream carries periodic keep-alive comments.
func TestSSEKeepAlive(t *testing.T) {
	s, err := New(Config{Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.sseKeepAlive = 30 * time.Millisecond // before the first request reads it
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	id := createSession(t, ts, "")
	sc, closeSSE := sseConn(t, ts.URL+"/api/v1/sessions/"+id+"/events", "")
	defer closeSSE()
	deadline := time.After(10 * time.Second)
	got := make(chan string, 1)
	go func() {
		n := 0
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": keep-alive") {
				n++
				if n == 2 { // two ticks prove the ticker, not a one-off
					got <- sc.Text()
					return
				}
			}
		}
	}()
	select {
	case <-got:
	case <-deadline:
		t.Fatal("no keep-alive comments on an idle SSE stream")
	}
}

// TestPayloadTooLarge checks that oversized stage payloads are refused
// with 413 instead of being truncated into a misleading decode error.
func TestPayloadTooLarge(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, "")
	huge := `{"budget": 1, "items": [` + strings.Repeat(`{"Street":"x"},`, 600000) + `{"Street":"x"}]}`
	if len(huge) <= maxPayloadBytes {
		t.Fatalf("test payload only %d bytes", len(huge))
	}
	resp, err := http.Post(ts.URL+"/api/v1/sessions/"+id+"/stages/feedback",
		"application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized payload: %s, want 413", resp.Status)
	}
}

// TestCreateBodyStrict: the create body is decoded like a plan — at most
// 8 MiB (413), and an unknown field or trailing data is a 400 — so a
// misspelled key never builds a session from the defaults.
func TestCreateBodyStrict(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversized", `{"n":20,"name":"` + strings.Repeat("x", maxPayloadBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown field", `{"nn":50}`, http.StatusBadRequest},
		{"trailing data", `{"n":20}{"n":30}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %s, want %d", tc.name, resp.Status, tc.want)
		}
	}
	if n := getJSON(t, ts.URL+"/api/v1/sessions")["total"].(float64); n != 0 {
		t.Fatalf("%v sessions created from rejected bodies", n)
	}
}

// getJSON fetches and decodes one JSON document.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, body := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%s)", url, resp.Status, body)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// resultDigest is the session's full clean result as canonical CSV.
func resultDigest(t *testing.T, base string) string {
	t.Helper()
	resp, body := get(t, base+"/export/result?format=csv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export result: %s (%s)", resp.Status, body)
	}
	return body
}

// TestRestartRecovery is the kill -9 acceptance flow under the configuration
// a data directory alone gives: a session wrangles a three-stage plan and one
// synchronous stage, each a run that commits with one fsync; the process
// dies without any graceful shutdown; and a server restarted over the same
// directory restores all four events, the same result and both terminal run
// resources byte for byte.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*Server, *httptest.Server) {
		s, err := New(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	s1, ts1 := boot()

	id := createSession(t, ts1, `{"name":"durable","n":50}`)
	base1 := ts1.URL + "/api/v1/sessions/" + id
	plan := `{"stages":[{"stage":"bootstrap"},{"stage":"data-context"},
		{"stage":"feedback","payload":{"budget":60}}]}`
	resp, err := http.Post(base1+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan submit: %s", resp.Status)
	}
	loc := resp.Header.Get("Location")
	final := pollRun(t, ts1.URL+loc)
	if final["state"] != "succeeded" {
		t.Fatalf("plan run: %v (%v)", final["state"], final["error"])
	}

	// What the plan cost, read the moment it is observed terminal: one
	// record of its three requests and events, made durable by one fsync.
	jpath := filepath.Join(dir, id+journalExt)
	journalFsyncs := s1.metrics.Counter(metrics.Name("persist_fsync_total", "path", "journal"))
	requests := func() (perRecord []int) {
		for _, rec := range readJournal(t, jpath) {
			if rec.Asked == nil || len(rec.Asked.Requests) != len(rec.Asked.Events) {
				t.Fatalf("not a run record of one request per event: %+v", rec)
			}
			perRecord = append(perRecord, len(rec.Asked.Requests))
		}
		return perRecord
	}
	if got := journalFsyncs.Value(); got != 1 {
		t.Fatalf("journal fsyncs = %d, want 1 for the plan's record", got)
	}
	if got := requests(); fmt.Sprint(got) != "[3]" {
		t.Fatalf("journal holds records of %v requests, want [3]", got)
	}
	// A synchronous stage is a run too: its 200 follows the one fsync of its
	// record.
	post(t, base1+"/stages/quality-report")
	if got := journalFsyncs.Value(); got != 2 {
		t.Fatalf("journal fsyncs = %d after the sync stage, want 2", got)
	}
	if got := requests(); fmt.Sprint(got) != "[3 1]" {
		t.Fatalf("journal holds records of %v requests, want [3 1]", got)
	}
	list := getJSON(t, base1+"/runs")["runs"].([]any)
	if len(list) != 2 {
		t.Fatalf("runs = %d, want the plan and the sync stage", len(list))
	}
	runURLs := []string{loc, "/api/v1/sessions/" + id + "/runs/" + list[1].(map[string]any)["id"].(string)}

	// Ground truth before the crash.
	wantEvents := getJSON(t, base1)["events"].([]any)
	if len(wantEvents) != 4 {
		t.Fatalf("pre-restart events = %d, want 4", len(wantEvents))
	}
	var wantRuns []string
	for _, u := range runURLs {
		_, body := get(t, ts1.URL+u)
		wantRuns = append(wantRuns, body)
	}
	wantResult := resultDigest(t, base1)
	ts1.Close()
	_ = s1 // deliberately never s1.Close(): this is the kill -9

	// Restart over the same directory.
	s2, ts2 := boot()
	t.Cleanup(s2.Close)
	base2 := ts2.URL + "/api/v1/sessions/" + id

	if all := getJSON(t, ts2.URL+"/api/v1/sessions"); all["total"].(float64) != 1 {
		t.Fatalf("restored sessions = %v", all["total"])
	}
	gotState := getJSON(t, base2)
	if gotState["id"] != id || gotState["name"] != "durable" {
		t.Fatalf("restored identity: %v/%v", gotState["id"], gotState["name"])
	}
	// Identical event history (sequence, stages, timestamps, scores).
	if !reflect.DeepEqual(gotState["events"], wantEvents) {
		t.Fatalf("events drifted across restart:\n got %v\nwant %v", gotState["events"], wantEvents)
	}
	if got := resultDigest(t, base2); got != wantResult {
		t.Fatalf("result drifted across restart:\n got %s\nwant %s", got, wantResult)
	}
	for i, u := range runURLs {
		if _, got := get(t, ts2.URL+u); got != wantRuns[i] {
			t.Fatalf("run drifted across restart:\n got %s\nwant %s", got, wantRuns[i])
		}
	}

	// The restored session keeps wrangling: one more stage applies and the
	// event numbering continues.
	if ev := postBody(t, base2+"/stages/user-context", `{"model":"size"}`); ev["seq"].(float64) != 5 {
		t.Fatalf("post-restart seq = %v, want 5", ev["seq"])
	}
}

// TestRestartRecoveryWholesaleJournal is the upgrade path: a data directory
// an older binary left — a journal of stage records, each carrying the
// knowledge-base delta its stage produced, relations put wholesale —
// restores with every event and the same result, and the next stage
// journals in today's layout over it. The fixture is the journal such a
// binary would have written for the stages this server ran, each delta the
// difference between the exports before and after its stage.
func TestRestartRecoveryWholesaleJournal(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)
	id := createSession(t, ts1, `{"name":"upgraded","n":50}`)
	base1 := ts1.URL + "/api/v1/sessions/" + id
	exported := func() *store.SessionSnapshot {
		t.Helper()
		_, body := get(t, base1+"/export")
		snap, err := store.ReadSessionSnapshot(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	states := []*store.SessionSnapshot{exported()}
	for _, st := range []struct{ name, payload string }{
		{"bootstrap", ""}, {"data-context", ""}, {"feedback", `{"budget": 40}`}, {"feedback", `{"budget": 40}`},
	} {
		postBody(t, base1+"/stages/"+st.name, st.payload)
		states = append(states, exported())
	}
	wantEvents := getJSON(t, base1)["events"].([]any)
	wantResult := resultDigest(t, base1)
	ts1.Close()
	_ = s1 // kill -9: no graceful close

	var recs []store.Record
	for i := 1; i < len(states); i++ {
		ev := states[i].Events[i-1]
		recs = append(recs, store.Record{Seq: uint64(i), At: ev.At,
			Stage: &store.StageRecord{Event: ev, Delta: wholesaleDelta(t, states[i-1].KB, states[i].KB)}})
	}
	writeJournal(t, filepath.Join(dir, id+journalExt), recs)

	s2, ts2 := journalServer(t, dir)
	t.Cleanup(s2.Close)
	base2 := ts2.URL + "/api/v1/sessions/" + id
	if got := getJSON(t, base2)["events"]; !reflect.DeepEqual(got, wantEvents) {
		t.Fatalf("events drifted across restart:\n got %v\nwant %v", got, wantEvents)
	}
	if got := resultDigest(t, base2); got != wantResult {
		t.Fatalf("result drifted across restart:\n got %s\nwant %s", got, wantResult)
	}
	// The older journal was folded into a snapshot at boot; the next stage
	// journals a record of today's layout over it.
	postBody(t, base2+"/stages/feedback", `{"budget": 40}`)
	recs = readJournal(t, filepath.Join(dir, id+journalExt))
	if len(recs) != 1 || recs[0].Asked == nil {
		t.Fatalf("journal after the next stage holds %d records (%+v), want one run record", len(recs), recs)
	}
}

// wholesaleDelta is the delta an older binary's log cut for the stage that
// took the knowledge base from prev to next: facts retracted and asserted,
// relations dropped and put whole.
func wholesaleDelta(t *testing.T, prev, next *kb.KB) *store.Delta {
	t.Helper()
	content := func(k *kb.KB) (facts map[string][]relation.Tuple, rels map[string]json.RawMessage) {
		var buf bytes.Buffer
		if err := k.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		var snap struct {
			Facts     map[string][]relation.Tuple
			Relations map[string]json.RawMessage
		}
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		return snap.Facts, snap.Relations
	}
	pf, pr := content(prev)
	nf, nr := content(next)
	d := &store.Delta{From: prev.Version(), To: next.Version()}
	for _, pred := range slices.Sorted(maps.Keys(pf)) {
		for _, f := range pf[pred] {
			if !slices.ContainsFunc(nf[pred], f.Same) {
				d.Ops = append(d.Ops, store.DeltaOp{Kind: store.DeltaRetract, Name: pred, Tuple: f})
			}
		}
	}
	for _, pred := range slices.Sorted(maps.Keys(nf)) {
		for _, f := range nf[pred] {
			if !slices.ContainsFunc(pf[pred], f.Same) {
				d.Ops = append(d.Ops, store.DeltaOp{Kind: store.DeltaAssert, Name: pred, Tuple: f})
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(pr)) {
		if _, ok := nr[name]; !ok {
			d.Ops = append(d.Ops, store.DeltaOp{Kind: store.DeltaDropRelation, Name: name})
		}
	}
	for _, name := range slices.Sorted(maps.Keys(nr)) {
		if !bytes.Equal(pr[name], nr[name]) {
			d.Ops = append(d.Ops, store.DeltaOp{Kind: store.DeltaPutRelation, Name: name, Relation: next.Relation(name)})
		}
	}
	return d
}

// writeJournal replaces the journal at path with the given records, framed
// as the v1 layout frames them — magic and version, then per record its kind,
// a big-endian u32 length, the JSON payload and its CRC-32 — independently of
// the store's own encoder.
func writeJournal(t *testing.T, path string, recs []store.Record) {
	t.Helper()
	out := []byte("VADAJRNL\x01")
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		kind := byte(0x01) // an older binary's stage record
		switch {
		case rec.Asked != nil:
			kind = 0x03
		case rec.Run != nil:
			kind = 0x02 // an older binary's run record
		}
		out = append(out, kind)
		out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCloseEvictPersists proves the teardown path snapshots the final
// state: a DELETEd session's durable state is garbage-collected from the
// live directory, and the archive written under closed/ carries every
// event and stays restorable.
func TestCloseEvictPersists(t *testing.T) {
	dir := t.TempDir()
	s, ts := journalServer(t, dir)
	t.Cleanup(s.Close)

	id := createSession(t, ts, `{"name":"evicted","n":50}`)
	base := ts.URL + "/api/v1/sessions/" + id
	if resp, body := get(t, base); resp.StatusCode != http.StatusOK {
		t.Fatalf("state: %s", body)
	}
	resp, err := http.Post(base+"/stages/bootstrap", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bootstrap: %s", resp.Status)
	}

	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %s", dresp.Status)
	}

	// The live pair is gone — an explicitly closed session must not
	// resurrect on the next boot.
	if _, err := os.Stat(filepath.Join(dir, id+snapshotExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("live snapshot survived DELETE: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+journalExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("live journal survived DELETE: %v", err)
	}
	// The archive carries the final state.
	f, err := os.Open(filepath.Join(dir, closedDirName, id+snapshotExt))
	if err != nil {
		t.Fatalf("close did not archive: %v", err)
	}
	defer f.Close()
	snap, err := store.ReadSessionSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.ID != id || len(snap.Events) != 1 || snap.Events[0].Stage != "bootstrap" {
		t.Fatalf("archived snapshot = %+v", snap.Meta)
	}
}

// TestExportImport round-trips a session through the HTTP surface: export,
// conflict on live re-import, delete, then import resurrects it.
func TestExportImport(t *testing.T) {
	_, ts := testServer(t)
	id := createSession(t, ts, `{"name":"exported","n":60}`)
	base := ts.URL + "/api/v1/sessions/" + id
	post(t, base+"/stages/bootstrap")

	resp, err := http.Get(base + "/export")
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export content type = %q", ct)
	}
	if !strings.Contains(resp.Header.Get("Content-Disposition"), id+".vsnap") {
		t.Fatalf("export disposition = %q", resp.Header.Get("Content-Disposition"))
	}
	_, wantResult := get(t, base+"/result?limit=1000")

	// Importing while the ID is live conflicts.
	cresp, err := http.Post(ts.URL+"/api/v1/sessions/import", "application/octet-stream",
		bytes.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("import over live session: %s, want 409", cresp.Status)
	}

	// Delete, then import resurrects the session with identical state.
	req, _ := http.NewRequest(http.MethodDelete, base, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	iresp, err := http.Post(ts.URL+"/api/v1/sessions/import", "application/octet-stream",
		bytes.NewReader(envelope))
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	body, _ := io.ReadAll(iresp.Body)
	if iresp.StatusCode != http.StatusCreated {
		t.Fatalf("import: %s (%s)", iresp.Status, body)
	}
	if loc := iresp.Header.Get("Location"); loc != "/api/v1/sessions/"+id {
		t.Fatalf("import location = %q", loc)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st["id"] != id || len(st["events"].([]any)) != 1 {
		t.Fatalf("imported state = %v", st)
	}
	if _, gotResult := get(t, base+"/result?limit=1000"); gotResult != wantResult {
		t.Fatalf("imported result drifted:\n got %s\nwant %s", gotResult, wantResult)
	}
	// And it wrangles on.
	post(t, base+"/stages/data-context")
}

// TestImportRejections covers the import guardrails: garbage envelopes,
// truncated envelopes and filesystem-hostile session IDs.
func TestImportRejections(t *testing.T) {
	_, ts := testServer(t)
	importURL := ts.URL + "/api/v1/sessions/import"

	for name, body := range map[string][]byte{
		"garbage":   []byte("definitely not a snapshot"),
		"empty":     {},
		"truncated": []byte("VADASNAP\x01\x01\x00\x00\x10\x00"),
	} {
		resp, err := http.Post(importURL, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s import: %s, want 400", name, resp.Status)
		}
	}

	// A structurally-valid snapshot whose ID would escape the data
	// directory is refused before it touches anything.
	var evil bytes.Buffer
	err := store.WriteSessionSnapshot(&evil, &store.SessionSnapshot{
		Meta: store.Meta{ID: "../evil"},
		KB:   kb.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(importURL, "application/octet-stream", bytes.NewReader(evil.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "not importable") {
		t.Fatalf("hostile ID import: %s (%s)", resp.Status, msg)
	}
}

// TestExportUnknownSession pins the 404.
func TestExportUnknownSession(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/sessions/nope/export")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export unknown: %s", resp.Status)
	}
}

// TestImportScenarioBounds proves imported snapshots cannot smuggle
// scenario sizes past the server's bound of 2000 (or negative sizes that
// would panic generation).
func TestImportScenarioBounds(t *testing.T) {
	s, ts := journalServer(t, t.TempDir()) // at most 2000 properties or postcodes
	t.Cleanup(s.Close)
	importURL := ts.URL + "/api/v1/sessions/import"

	build := func(n, postcodes int) []byte {
		cfg := datagen.DefaultConfig()
		cfg.NProperties = n
		cfg.NPostcodes = postcodes
		var buf bytes.Buffer
		err := store.WriteSessionSnapshot(&buf, &store.SessionSnapshot{
			Meta: store.Meta{ID: "bounds-test", Scenario: &cfg},
			KB:   kb.New(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for name, body := range map[string][]byte{
		"oversized properties": build(100000, 60),
		"oversized postcodes":  build(50, 100000),
		"negative properties":  build(-1, 60),
		"negative postcodes":   build(50, -1),
	} {
		resp, err := http.Post(importURL, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s (%s), want 400", name, resp.Status, msg)
		}
	}

	// An in-bounds scenario config still imports.
	resp, err := http.Post(importURL, "application/octet-stream", bytes.NewReader(build(50, 20)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("in-bounds import: %s, want 201", resp.Status)
	}
}

// journalServer builds the full production wiring — durability included —
// over a data directory, exactly as main does. It is not closed at the end:
// a test that wants a graceful shutdown closes it, and one that does not is
// the kill -9.
func journalServer(t *testing.T, dataDir string) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{DataDir: dataDir, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// readJournal replays a journal file's valid prefix.
func readJournal(t *testing.T, path string) []store.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.Replay(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return res.Records
}

// TestRestartRecoveryJournaled is the kill -9 acceptance flow over several
// runs: a session completes a 4-stage plan run plus one
// more async stage run with NO compaction in between — the snapshot on disk
// stays the stageless baseline, all state lives in O(delta) journal
// appends — the process dies without any graceful shutdown, and a server
// restarted over the same -data-dir serves identical result rows,
// identical event history (Seq continues) and both terminal run resources.
func TestRestartRecoveryJournaled(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)

	id := createSession(t, ts1, `{"name":"journaled","n":50}`)
	base1 := ts1.URL + "/api/v1/sessions/" + id
	plan := `{"stages":[{"stage":"bootstrap"},{"stage":"data-context"},
		{"stage":"feedback","payload":{"budget":60}},{"stage":"user-context","payload":{"model":"crime"}}]}`
	resp, err := http.Post(base1+"/plans", "application/json", strings.NewReader(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plan submit: %s", resp.Status)
	}
	loc := resp.Header.Get("Location")
	rid := loc[strings.LastIndex(loc, "/")+1:]
	if final := pollRun(t, ts1.URL+loc); final["state"] != "succeeded" {
		t.Fatalf("plan run: %v (%v)", final["state"], final["error"])
	}
	// A second completed run after the plan: N runs since last compaction.
	resp2, err := http.Post(base1+"/stages/user-context?async=1", "application/json",
		strings.NewReader(`{"model":"size"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("async stage submit: %s", resp2.Status)
	}
	loc2 := resp2.Header.Get("Location")
	rid2 := loc2[strings.LastIndex(loc2, "/")+1:]
	if final := pollRun(t, ts1.URL+loc2); final["state"] != "succeeded" {
		t.Fatalf("stage run: %v (%v)", final["state"], final["error"])
	}

	// Ground truth before the crash.
	wantState := getJSON(t, base1)
	wantEvents := wantState["events"].([]any)
	if len(wantEvents) != 5 {
		t.Fatalf("pre-restart events = %d, want 5", len(wantEvents))
	}
	wantRun := getJSON(t, ts1.URL+loc)
	wantRun2 := getJSON(t, ts1.URL+loc2)
	_, wantResult := get(t, base1+"/result?limit=1000")

	// Both terminal runs are journaled before they are observed terminal —
	// that is what kill -9 preserves.
	jpath := filepath.Join(dir, id+journalExt)

	// The shape on disk: the snapshot is the creation-time baseline (no
	// events), written before the 201, and completed runs appended to the
	// journal, one record each; they did not rewrite it.
	f, err := os.Open(filepath.Join(dir, id+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := store.ReadSessionSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Events) != 0 || len(baseline.Runs) != 0 {
		t.Fatalf("snapshot was rewritten (%d events, %d runs) — journaling should append instead",
			len(baseline.Events), len(baseline.Runs))
	}
	if recs := readJournal(t, jpath); len(recs) != 2 { // one per run
		t.Fatalf("journal holds %d records, want one per run", len(recs))
	}

	ts1.Close()
	_ = s1 // deliberately never s1.Close(): this is the kill -9

	// Restart over the same directory.
	s2, ts2 := journalServer(t, dir)
	t.Cleanup(s2.Close)
	base2 := ts2.URL + "/api/v1/sessions/" + id

	gotState := getJSON(t, base2)
	if gotState["id"] != id || gotState["name"] != "journaled" {
		t.Fatalf("restored identity: %v/%v", gotState["id"], gotState["name"])
	}
	if !reflect.DeepEqual(gotState["events"], wantEvents) {
		t.Fatalf("events drifted across restart:\n got %v\nwant %v", gotState["events"], wantEvents)
	}
	if _, gotResult := get(t, base2+"/result?limit=1000"); gotResult != wantResult {
		t.Fatalf("result drifted across restart:\n got %s\nwant %s", gotResult, wantResult)
	}
	if gotRun := getJSON(t, base2+"/runs/"+rid); !reflect.DeepEqual(gotRun, wantRun) {
		t.Fatalf("plan run drifted across restart:\n got %v\nwant %v", gotRun, wantRun)
	}
	if gotRun2 := getJSON(t, base2+"/runs/"+rid2); !reflect.DeepEqual(gotRun2, wantRun2) {
		t.Fatalf("stage run drifted across restart:\n got %v\nwant %v", gotRun2, wantRun2)
	}

	// The restored session keeps wrangling; Seq continues into the journal.
	resp3, err := http.Post(base2+"/stages/user-context", "application/json",
		strings.NewReader(`{"model":"crime"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var ev map[string]any
	if err := json.NewDecoder(resp3.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev["seq"].(float64) != 6 {
		t.Fatalf("post-restart seq = %v, want 6", ev["seq"])
	}
}

// TestSnapshotGC covers snapshot retention: DELETE archives the pair under
// closed/, a restart does NOT resurrect the session, and importing the
// archive brings it back live.
func TestSnapshotGC(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := journalServer(t, dir)

	id := createSession(t, ts1, `{"name":"gc","n":50}`)
	base1 := ts1.URL + "/api/v1/sessions/" + id
	post(t, base1+"/stages/bootstrap")
	req, _ := http.NewRequest(http.MethodDelete, base1, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %s", dresp.Status)
	}
	if _, err := os.Stat(filepath.Join(dir, id+snapshotExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("live snapshot survived DELETE: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, id+journalExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("live journal survived DELETE: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, closedDirName, id+snapshotExt)); err != nil {
		t.Fatalf("archive missing: %v", err)
	}
	ts1.Close()
	s1.Close()

	// A restart: the deleted session stays gone.
	s2, ts2 := journalServer(t, dir)
	t.Cleanup(s2.Close)
	if total := getJSON(t, ts2.URL+"/api/v1/sessions")["total"].(float64); total != 0 {
		t.Fatalf("deleted session resurrected: %v sessions", total)
	}

	// Importing the archive brings it back live and durable.
	archive, err := os.ReadFile(filepath.Join(dir, closedDirName, id+snapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts2.URL+"/api/v1/sessions/import", "application/octet-stream", bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("importing the archive: %s, want 201", resp.Status)
	}
	gotState := getJSON(t, ts2.URL+"/api/v1/sessions/"+id)
	if events := gotState["events"].([]any); len(events) != 1 {
		t.Fatalf("imported archive has %d events, want 1", len(events))
	}
	if _, err := os.Stat(filepath.Join(dir, id+snapshotExt)); err != nil {
		t.Fatalf("imported session has no live snapshot: %v", err)
	}
	// And it wrangles on.
	post(t, ts2.URL+"/api/v1/sessions/"+id+"/stages/data-context")
}

// TestHealthzPersistStats pins the healthz persist section: journaled
// session count, record/byte totals and the last snapshot time.
func TestHealthzPersistStats(t *testing.T) {
	dir := t.TempDir()
	s, ts := journalServer(t, dir)
	t.Cleanup(s.Close)

	id := createSession(t, ts, "")
	post(t, ts.URL+"/api/v1/sessions/"+id+"/stages/bootstrap") // sync: journaled via the stage hook

	h := getJSON(t, ts.URL+"/api/v1/healthz")
	persist, ok := h["persist"].(map[string]any)
	if !ok {
		t.Fatalf("healthz without persist stats: %v", h)
	}
	if persist["journaled_sessions"].(float64) != 1 {
		t.Fatalf("persist.journaled_sessions = %v", persist["journaled_sessions"])
	}
	if persist["journal_records"].(float64) < 1 {
		t.Fatalf("persist.journal_records = %v", persist["journal_records"])
	}
	if persist["journal_bytes"].(float64) <= 0 {
		t.Fatalf("persist.journal_bytes = %v", persist["journal_bytes"])
	}
	if _, ok := persist["last_snapshot"].(string); !ok {
		t.Fatalf("persist.last_snapshot = %v", persist["last_snapshot"])
	}

	// Ephemeral servers carry no persist section.
	_, ets := testServer(t)
	if h := getJSON(t, ets.URL+"/api/v1/healthz"); h["persist"] != nil {
		t.Fatalf("ephemeral healthz grew persist stats: %v", h["persist"])
	}
}

// TestCreateNotDurable: with a data directory that cannot take the session
// — here one replaced by a regular file after boot — neither create nor
// import answers 201, and the session that could not be written is not left
// behind in memory either.
func TestCreateNotDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, ts := journalServer(t, dir)
	t.Cleanup(s.Close)

	// An envelope to import, exported while the directory still works.
	id := createSession(t, ts, `{"n":20}`)
	resp, err := http.Get(ts.URL + "/api/v1/sessions/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %s (%v)", resp.Status, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+id, nil)
	if dresp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		dresp.Body.Close()
	}

	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, post := range map[string]func() (*http.Response, error){
		"create": func() (*http.Response, error) {
			return http.Post(ts.URL+"/api/v1/sessions", "application/json", strings.NewReader(`{"n":20}`))
		},
		"import": func() (*http.Response, error) {
			return http.Post(ts.URL+"/api/v1/sessions/import", "application/octet-stream", bytes.NewReader(envelope))
		},
	} {
		resp, err := post()
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(msg), "not durable") {
			t.Fatalf("%s into an unwritable data dir: %s (%s), want 500 not durable", name, resp.Status, msg)
		}
	}
	if all := getJSON(t, ts.URL+"/api/v1/sessions"); all["total"].(float64) != 0 {
		t.Fatalf("%v sessions live after failed creates, want none", all["total"])
	}
}

// TestFailedRunsReplayExactly pins the rule that keeps replay from
// re-deriving a partial stage: a run that fails or is cancelled once started
// is followed, at its record, by a compaction. Two such runs — a plan whose
// feedback stage applies and whose next stage fails, and a run cancelled
// after its stage's action ran, before orchestration — are each followed by
// one more stage; the server is abandoned without Close and a new one opened
// on the same directory serves the live session's events, result and
// knowledge-base content.
func TestFailedRunsReplayExactly(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Server, ts *httptest.Server, id string)
	}{
		{"plan fails after a stage applied", func(t *testing.T, s *Server, ts *httptest.Server, id string) {
			resp := postJSON(t, ts.URL+"/api/v1/sessions/"+id+"/plans",
				`{"stages":[{"stage":"feedback","payload":{"budget":20}},{"stage":"export","payload":{"relation":"nope"}}]}`)
			resp.Body.Close()
			if final := pollRun(t, ts.URL+resp.Header.Get("Location")); final["state"] != "failed" || len(final["events"].([]any)) != 1 {
				t.Fatalf("plan ended %v with events %v, want failed after one stage", final["state"], final["events"])
			}
		}},
		{"run cancelled after its action", func(t *testing.T, s *Server, ts *httptest.Server, id string) {
			sess, err := s.store.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			items := core.OracleFeedback(sess.Scenario(), sess.Wrangler().Result(), 20, sess.Seed())
			acted := make(chan struct{})
			sub, err := s.runs.Submit(context.Background(), id, session.StageFeedback, func(ctx context.Context) (session.Event, error) {
				return sess.Step(ctx, session.StageFeedback, func(w *core.Wrangler) error {
					w.AddFeedback(items...)
					close(acted)
					<-ctx.Done()
					return nil
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			<-acted
			if _, err := s.runs.Cancel(sub.ID); err != nil {
				t.Fatal(err)
			}
			if run, _ := sub.Wait(context.Background()); run.State != runs.StateCancelled {
				t.Fatalf("run ended %s, want cancelled", run.State)
			}
			if n := len(sess.Wrangler().FeedbackItems()); n != len(items) {
				t.Fatalf("the cancelled stage left %d feedback items, want its %d", n, len(items))
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := journalServer(t, dir)
			id := createSession(t, ts1, `{"n":40}`)
			base1 := ts1.URL + "/api/v1/sessions/" + id
			post(t, base1+"/stages/bootstrap")
			tc.run(t, s1, ts1, id)
			postBody(t, base1+"/stages/user-context", `{"model":"size"}`)
			wantEvents := getJSON(t, base1)["events"]
			wantResult := resultDigest(t, base1)
			wantKB := exportedKB(t, base1)
			ts1.Close()
			_ = s1 // abandoned: no Close, as after kill -9

			s2, ts2 := journalServer(t, dir)
			t.Cleanup(s2.Close)
			base2 := ts2.URL + "/api/v1/sessions/" + id
			if got := getJSON(t, base2)["events"]; !reflect.DeepEqual(got, wantEvents) {
				t.Fatalf("events drifted across restart:\n got %v\nwant %v", got, wantEvents)
			}
			if got := resultDigest(t, base2); got != wantResult {
				t.Fatalf("result drifted across restart:\n got %s\nwant %s", got, wantResult)
			}
			if got := exportedKB(t, base2); got != wantKB {
				t.Fatalf("knowledge-base content drifted across restart (%d and %d bytes)", len(got), len(wantKB))
			}
		})
	}
}

// exportedKB is the knowledge-base content of a session's export, the
// version stripped.
func exportedKB(t *testing.T, base string) string {
	t.Helper()
	_, body := get(t, base+"/export")
	snap, err := store.ReadSessionSnapshot(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.KB.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`^\{"version":\d+,`).ReplaceAllString(buf.String(), "{")
}

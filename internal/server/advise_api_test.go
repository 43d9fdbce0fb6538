package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vada/internal/advise"
	"vada/internal/feedback"
	"vada/internal/quality"
	"vada/internal/session"
)

// getSuggestions fetches the advisor ranking and decodes it, returning the
// raw body too so callers can pin byte-level determinism.
func getSuggestions(t *testing.T, ts *httptest.Server, id string) ([]advise.Suggestion, string) {
	t.Helper()
	resp, body := get(t, ts.URL+"/api/v1/sessions/"+id+"/suggestions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("suggestions: %s (%s)", resp.Status, body)
	}
	var out struct {
		Total       int                 `json:"total"`
		Suggestions []advise.Suggestion `json:"suggestions"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != len(out.Suggestions) {
		t.Fatalf("total %d != %d suggestions", out.Total, len(out.Suggestions))
	}
	return out.Suggestions, body
}

// TestSuggestionsErrors pins the route's failure modes: an unknown session
// is a 404 and a blank session answers 200 with an empty list, not a 500.
func TestSuggestionsErrors(t *testing.T) {
	_, ts := testServer(t)
	resp, _ := get(t, ts.URL+"/api/v1/sessions/nope/suggestions")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %s, want 404", resp.Status)
	}

	id := createSession(t, ts, `{"blank":true}`)
	resp, body := get(t, ts.URL+"/api/v1/sessions/"+id+"/suggestions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blank session: %s", resp.Status)
	}
	if !strings.Contains(body, `"total": 0`) || !strings.Contains(body, `"suggestions": []`) {
		t.Fatalf("blank session suggestions = %s, want an empty list", body)
	}
}

// advisorLoop drives one full mixed-initiative round against a fresh server
// and returns the suggestion bodies observed at each step, so the caller can
// pin cross-run determinism byte for byte.
func advisorLoop(t *testing.T) (preBoot, ranked, after string) {
	t.Helper()
	s, ts := testServer(t)
	id := createSession(t, ts, `{"n":40,"seed":7}`)
	base := ts.URL + "/api/v1/sessions/" + id

	// Before any stage has run, the advisor points at bootstrap and at
	// nothing else: the only sensible move on a sources-only session.
	sugs, preBoot := getSuggestions(t, ts, id)
	if len(sugs) != 1 || sugs[0].Kind != advise.KindStage || sugs[0].Target != session.StageBootstrap {
		t.Fatalf("pre-bootstrap suggestions = %s", preBoot)
	}
	if sugs[0].Action == nil || sugs[0].Action.Stage != session.StageBootstrap {
		t.Fatalf("bootstrap suggestion not actionable: %+v", sugs[0])
	}

	// Accept it verbatim: the suggestion's action IS the stage request.
	applyAction(t, base, sugs[0].Action)

	// The re-ranked list is ordered, rationalised, and contains a feedback
	// suggestion whose action targets the feedback-batch stage.
	sugs, ranked = getSuggestions(t, ts, id)
	var fb *advise.Suggestion
	for i, sg := range sugs {
		if sg.Rationale == "" {
			t.Fatalf("suggestion without rationale: %+v", sg)
		}
		if i > 0 && sg.Score > sugs[i-1].Score {
			t.Fatalf("ranking not ordered: %s", ranked)
		}
		if sg.Kind == advise.KindFeedback && fb == nil {
			fb = &sugs[i]
		}
	}
	if fb == nil {
		t.Fatalf("no feedback suggestion in %s", ranked)
	}
	if fb.Action == nil || fb.Action.Stage != session.StageFeedbackBatch {
		t.Fatalf("feedback suggestion action = %+v", fb.Action)
	}

	// The quality report has no accuracy evidence yet — nothing has been
	// annotated — so accepting the top feedback suggestion must measurably
	// improve it: the targeted attribute gains an accuracy entry.
	sess, err := s.store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	w := sess.Wrangler()
	before := quality.Assess(w.ResultClean(), w.CFDs(), feedback.AccuracyByAttr(w.FeedbackItems()))
	if len(before.Accuracy) != 0 {
		t.Fatalf("accuracy before feedback = %v, want none", before.Accuracy)
	}

	applyAction(t, base, fb.Action)

	report := quality.Assess(w.ResultClean(), w.CFDs(), feedback.AccuracyByAttr(w.FeedbackItems()))
	if _, ok := report.Accuracy[fb.Target]; !ok {
		t.Fatalf("accuracy after feedback = %v, want evidence for %q", report.Accuracy, fb.Target)
	}

	// The accepted suggestion is stale now: the advisor reflects the new
	// session state and no longer recommends annotating that attribute.
	sugs, after = getSuggestions(t, ts, id)
	for _, sg := range sugs {
		if sg.Kind == advise.KindFeedback && sg.Target == fb.Target {
			t.Fatalf("stale suggestion survived acceptance: %+v", sg)
		}
	}

	// The health probe's metrics roll-up counts the advisor traffic.
	_, hz := get(t, ts.URL+"/api/v1/healthz")
	var health struct {
		Metrics map[string]int64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(hz), &health); err != nil {
		t.Fatal(err)
	}
	if health.Metrics["advise_suggestions_total"] == 0 || health.Metrics["advise_accepted_total"] != 1 {
		t.Fatalf("healthz advise roll-up = %v", health.Metrics)
	}
	return preBoot, ranked, after
}

// applyAction replays a suggestion's action verbatim against the generic
// stage route, synchronously.
func applyAction(t *testing.T, base string, a *advise.Action) {
	t.Helper()
	resp, err := http.Post(base+"/stages/"+a.Stage, "application/json", strings.NewReader(string(a.Payload)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("accepting %q suggestion: %s", a.Stage, resp.Status)
	}
}

// TestAdvisorClosedLoop is the acceptance flow of the mixed-initiative
// advisor: ingest → ranked suggestions with rationales → accepting the top
// feedback suggestion improves the quality report → the re-fetched ranking
// reflects the new state. Two independent runs over the same scenario
// produce byte-identical suggestion bodies at every step.
func TestAdvisorClosedLoop(t *testing.T) {
	pre1, ranked1, after1 := advisorLoop(t)
	pre2, ranked2, after2 := advisorLoop(t)
	if pre1 != pre2 || ranked1 != ranked2 || after1 != after2 {
		t.Fatalf("advisor ranking not deterministic across runs:\n%s\n----\n%s", ranked1, ranked2)
	}
}

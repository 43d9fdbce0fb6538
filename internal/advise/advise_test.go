package advise

import (
	"encoding/json"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/mcda"
	"vada/internal/quality"
)

// TestEmptyStateYieldsNoSuggestions pins the blank-session contract: an
// empty knowledge base is an empty list, not a crash.
func TestEmptyStateYieldsNoSuggestions(t *testing.T) {
	if got := Suggest(State{}); len(got) != 0 {
		t.Fatalf("empty state suggested %v", got)
	}
}

// TestSourcesWithoutResultSuggestBootstrap pins the first step of the agent
// loop: data is in, nothing wrangled yet → bootstrap, with a POSTable action.
func TestSourcesWithoutResultSuggestBootstrap(t *testing.T) {
	got := Suggest(State{HasSources: true})
	if len(got) != 1 || got[0].Kind != KindStage || got[0].Target != "bootstrap" {
		t.Fatalf("suggestions = %+v", got)
	}
	if got[0].Action == nil || got[0].Action.Stage != "bootstrap" {
		t.Fatalf("action = %+v", got[0].Action)
	}
	if got[0].Rationale == "" {
		t.Fatal("suggestion lacks a rationale")
	}
}

// resultState builds a state with a wrangled result over the property
// schema, partially complete and with CFD violations on crimerank.
func resultState() State {
	return State{
		HasSources: true,
		HasContext: true,
		HasResult:  true,
		Report: quality.Report{
			Relation: "result",
			Rows:     10,
			Completeness: map[string]float64{
				"street": 1, "postcode": 1, "price": 0.5, "bedrooms": 0.9,
			},
			Density:     0.85,
			Consistency: 0.8,
			Accuracy:    map[string]float64{},
		},
		Violations:       map[string]int{"bedrooms": 4},
		FeedbackByAttr:   map[string]int{},
		UnmatchedTargets: []string{"crimerank"},
		MatchThreshold:   0.6,
	}
}

// TestFeedbackSuggestionsRankByNeed checks that the completeness gap and
// violation counts move scores, the ranking is score-descending, and covered
// attributes drop out.
func TestFeedbackSuggestionsRankByNeed(t *testing.T) {
	st := resultState()
	got := Suggest(st)
	byTarget := map[string]Suggestion{}
	for _, sg := range got {
		if sg.Kind == KindFeedback {
			byTarget[sg.Target] = sg
		}
	}
	price, ok1 := byTarget["price"]
	bedrooms, ok2 := byTarget["bedrooms"]
	if !ok1 || !ok2 {
		t.Fatalf("missing feedback suggestions: %+v", got)
	}
	// price: 0.4 + 0.3*0.5 = 0.55; bedrooms: 0.4 + 0.3*0.1 + 0.2*0.4 = 0.51.
	if price.Score != 0.55 || bedrooms.Score != 0.51 {
		t.Fatalf("scores: price=%v bedrooms=%v", price.Score, bedrooms.Score)
	}
	// Key attributes are never feedback targets.
	if _, ok := byTarget["street"]; ok {
		t.Fatal("street suggested for feedback")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatalf("not score-descending at %d: %+v", i, got)
		}
	}
	// The action is a ready-to-POST feedback-batch request.
	var p struct {
		Attrs  []string `json:"attrs"`
		Budget int      `json:"budget"`
	}
	if err := json.Unmarshal(price.Action.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if price.Action.Stage != "feedback-batch" || len(p.Attrs) != 1 || p.Attrs[0] != "price" || p.Budget != 25 {
		t.Fatalf("action = %s %s", price.Action.Stage, price.Action.Payload)
	}
	// Covering price with feedback retires its suggestion.
	st.FeedbackByAttr["price"] = 3
	after := Suggest(st)
	for _, sg := range after {
		if sg.Kind == KindFeedback && sg.Target == "price" {
			t.Fatalf("covered attribute still suggested: %+v", sg)
		}
	}
}

// TestWeightsBoostAndMatchGap checks the MCDA-weight boost (capped) and the
// unmatched-target suggestion.
func TestWeightsBoostAndMatchGap(t *testing.T) {
	st := resultState()
	st.Weights = map[mcda.Criterion]float64{
		{Metric: "completeness", Target: "price"}: 0.4,
	}
	got := Suggest(st)
	var price, unmatched *Suggestion
	for i := range got {
		if got[i].Kind == KindFeedback && got[i].Target == "price" {
			price = &got[i]
		}
		if got[i].Kind == KindMatch && got[i].Target == "crimerank" {
			unmatched = &got[i]
		}
	}
	if price == nil || price.Score != 0.65 { // 0.55 + capped 0.1 boost
		t.Fatalf("weighted price = %+v", price)
	}
	if unmatched == nil || unmatched.Score != 0.3 || unmatched.Rationale == "" {
		t.Fatalf("unmatched crimerank = %+v", unmatched)
	}
	// With weights set, no user-context stage suggestion.
	for _, sg := range got {
		if sg.Kind == KindStage && sg.Target == "user-context" {
			t.Fatalf("user-context still suggested with weights set: %+v", sg)
		}
	}
}

// TestSnapshotAndDeterminism drives Snapshot over a real scenario wrangler
// and pins byte-identical rankings across repeated snapshots.
func TestSnapshotAndDeterminism(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 30
	cfg.Seed = 3
	sc := datagen.Generate(cfg)
	w := core.BuildScenarioWrangler(sc)
	if _, err := w.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := Snapshot(w)
	st.ScenarioBacked = true
	if !st.HasSources || !st.HasResult {
		t.Fatalf("snapshot = %+v", st)
	}
	first, err := json.Marshal(Suggest(st))
	if err != nil {
		t.Fatal(err)
	}
	if len(Suggest(st)) == 0 {
		t.Fatal("no suggestions over a wrangled scenario")
	}
	for i := 0; i < 3; i++ {
		st2 := Snapshot(w)
		st2.ScenarioBacked = true
		b, err := json.Marshal(Suggest(st2))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(first) {
			t.Fatalf("ranking drifted on snapshot %d:\n%s\nvs\n%s", i, b, first)
		}
	}
}

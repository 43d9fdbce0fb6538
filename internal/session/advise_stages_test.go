package session

import (
	"context"
	"encoding/json"
	"testing"

	"vada/internal/core"
	"vada/internal/feedback"
	"vada/internal/metrics"
)

// TestDedupFeedbackLastWins pins the batch semantics: duplicate annotations
// of one (street, postcode, attr) cell — including key-normalisation
// duplicates — resolve to the LAST item, at the first occurrence's position.
func TestDedupFeedbackLastWins(t *testing.T) {
	items := []feedback.Item{
		{Street: "1 A St", Postcode: "M1 1AA", Attr: "price", Correct: false},
		{Street: "2 B St", Postcode: "M2 2BB", Attr: "price", Correct: true},
		// Same cell as the first item modulo key normalisation: wins.
		{Street: " 1 a st ", Postcode: "m11aa", Attr: "price", Correct: true},
		// Same tuple, different attribute: distinct cell, kept.
		{Street: "1 A St", Postcode: "M1 1AA", Attr: "bedrooms", Correct: false},
	}
	got := dedupFeedbackLastWins(items)
	if len(got) != 3 {
		t.Fatalf("deduped to %d items: %+v", len(got), got)
	}
	// Position 0 is the first occurrence's slot, holding the last verdict.
	if !got[0].Correct || got[0].Street != " 1 a st " {
		t.Fatalf("conflicting cell resolved to %+v, want the last item", got[0])
	}
	if got[1].Street != "2 B St" || got[2].Attr != "bedrooms" {
		t.Fatalf("order disturbed: %+v", got)
	}
	// Accuracy over the deduped batch reflects only the final verdicts.
	if acc := feedback.AccuracyByAttr(got); acc["price"] != 1.0 {
		t.Fatalf("accuracy after last-wins = %v, want price 1.0", acc)
	}
}

// TestFeedbackBatchStage drives the stage end-to-end on a scenario session:
// attrs-targeted oracle annotations land as feedback restricted to those
// attributes, metrics count the acceptance, and explicit items override
// oracle judgements of the same cell.
func TestFeedbackBatchStage(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 40, 2)
	reg := metrics.NewRegistry()
	sess := New("s1", core.BuildScenarioWrangler(sc), WithScenario(sc, 2), WithMetrics(reg))
	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	ev, err := apply(ctx, sess, StageRequest{
		Stage:   StageFeedbackBatch,
		Payload: json.RawMessage(`{"attrs":["price"],"budget":10}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stage != StageFeedbackBatch || ev.Seq != 2 {
		t.Fatalf("event = %+v", ev)
	}
	items := sess.Wrangler().FeedbackItems()
	if len(items) == 0 || len(items) > 10 {
		t.Fatalf("oracle batch landed %d items", len(items))
	}
	for _, it := range items {
		if it.Attr != "price" {
			t.Fatalf("item outside the targeted attribute: %+v", it)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["advise_accepted_total"] != 1 {
		t.Fatalf("advise_accepted_total = %d", snap.Counters["advise_accepted_total"])
	}
	if snap.Counters["advise_accepted_items_total"] != int64(len(items)) {
		t.Fatalf("advise_accepted_items_total = %d, want %d",
			snap.Counters["advise_accepted_items_total"], len(items))
	}
	// An explicit item on a cell the oracle judged wins the batch dedup.
	target := items[0]
	override := feedback.Item{Street: target.Street, Postcode: target.Postcode,
		Attr: "price", Correct: !target.Correct}
	b, _ := json.Marshal(map[string]any{
		"attrs": []string{"price"}, "budget": 10,
		"items": []feedback.Item{override},
	})
	sess2 := New("s2", core.BuildScenarioWrangler(sc), WithScenario(sc, 2))
	if _, err := sess2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := apply(ctx, sess2, StageRequest{Stage: StageFeedbackBatch, Payload: b}); err != nil {
		t.Fatal(err)
	}
	key := feedback.KeyOf(target.Street, target.Postcode)
	found := false
	for _, it := range sess2.Wrangler().FeedbackItems() {
		if feedback.KeyOf(it.Street, it.Postcode) == key && it.Attr == "price" {
			if found {
				t.Fatalf("cell annotated twice after dedup")
			}
			found = true
			if it.Correct != override.Correct {
				t.Fatalf("explicit item did not win: %+v", it)
			}
		}
	}
	if !found {
		t.Fatal("override item missing from the batch")
	}
}

// TestSuggestionsOnSession pins the session surface: a blank wrangler has no
// suggestions, a bootstrapped scenario session has a ranked list with
// POSTable actions, advise_* metrics count served suggestions, and applying
// a feedback-batch retires the targeted attribute's suggestion.
func TestSuggestionsOnSession(t *testing.T) {
	ctx := context.Background()
	reg := metrics.NewRegistry()
	blank := New("blank", core.NewWrangler(), WithMetrics(reg))
	sugs, err := blank.Suggestions(ctx)
	if err != nil || len(sugs) != 0 {
		t.Fatalf("blank suggestions = %v, %v", sugs, err)
	}

	sc := testScenario(t, 40, 2)
	sess := New("s1", core.BuildScenarioWrangler(sc), WithScenario(sc, 2), WithMetrics(reg))
	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	sugs, err = sess.Suggestions(ctx)
	if err != nil || len(sugs) == 0 {
		t.Fatalf("suggestions = %v, %v", sugs, err)
	}
	var fbTarget string
	for _, sg := range sugs {
		if sg.Rationale == "" {
			t.Fatalf("suggestion without rationale: %+v", sg)
		}
		if sg.Kind == "feedback" && fbTarget == "" {
			fbTarget = sg.Target
			if sg.Action == nil || sg.Action.Stage != StageFeedbackBatch {
				t.Fatalf("feedback action = %+v", sg.Action)
			}
			// Accept it verbatim: the action payload IS the stage payload.
			if _, err := apply(ctx, sess, StageRequest{Stage: sg.Action.Stage, Payload: sg.Action.Payload}); err != nil {
				t.Fatalf("accepting suggestion: %v", err)
			}
		}
	}
	if fbTarget == "" {
		t.Fatalf("no feedback suggestion in %+v", sugs)
	}
	after, err := sess.Suggestions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range after {
		if sg.Kind == "feedback" && sg.Target == fbTarget {
			t.Fatalf("stale suggestion survived acceptance: %+v", sg)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["advise_rank_total"] != 3 {
		t.Fatalf("advise_rank_total = %d, want 3", snap.Counters["advise_rank_total"])
	}
	if metrics.SumCounters(snap, "advise_suggestions_total") == 0 {
		t.Fatal("no served suggestions counted")
	}
}

package core

import (
	"strings"
	"testing"

	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/relation"
)

// TestRehydrate proves a wrangler rebuilt over a merged KB snapshot recovers
// what the KB records: data-context names (read from the facts), feedback
// items and the user-context model (cells rebuilt from them).
func TestRehydrate(t *testing.T) {
	w1 := NewWrangler()
	ref := relation.New(relation.NewSchema("address", "street", "city", "postcode"))
	ref.MustAppend("1 High St", "M", "M1 1AA")
	w1.AddDataContext(ref)
	w1.AddFeedback(feedback.Item{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Correct: false})
	w1.SetUserContext(CrimeAnalysisUserContext())

	var buf strings.Builder
	if err := w1.KB.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := kb.ReadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	w2 := NewWrangler()
	w2.KB.Merge(snap)
	w2.Rehydrate()

	if got := referenceNames(w2.KB); len(got) != 1 || got[0] != "address" {
		t.Fatalf("reference names = %v, want [address]", got)
	}
	if w2.KB.Relation(RelContextPrefix+"address") == nil {
		t.Fatal("data-context relation lost")
	}
	items := w2.FeedbackItems()
	if len(items) != 1 || items[0].Attr != "bedrooms" || items[0].Correct {
		t.Fatalf("feedback items = %v", items)
	}
	model := cellUserModel.get(w2.KB)
	if model == nil {
		t.Fatal("user model not rehydrated")
	}
	want, _, err := CrimeAnalysisUserContext().Weights()
	got, _, err2 := model.Weights()
	if err != nil || err2 != nil {
		t.Fatalf("weights: %v / %v", err, err2)
	}
	for c, ww := range want {
		if g, ok := got[c]; !ok || g != ww {
			t.Fatalf("weight %v = %v, want %v", c, g, ww)
		}
	}
	// Idempotent: a second rehydrate adds nothing.
	w2.Rehydrate()
	if n := len(w2.FeedbackItems()); len(referenceNames(w2.KB)) != 1 || n != 1 {
		t.Fatalf("rehydrate not idempotent: %v, %d items", referenceNames(w2.KB), n)
	}
}

// TestOptionsAccessor pins that the effective configuration round-trips
// through the accessor.
func TestOptionsAccessor(t *testing.T) {
	w := NewWrangler(WithMatchThreshold(0.42), WithMaxSteps(77))
	opts := w.Options()
	if opts.MatchThreshold != 0.42 || opts.MaxSteps != 77 {
		t.Fatalf("options = %+v", opts)
	}
	opts.MaxSteps = 1 // mutating the copy must not touch the wrangler
	if w.Options().MaxSteps != 77 {
		t.Fatal("Options returned a live reference")
	}
}

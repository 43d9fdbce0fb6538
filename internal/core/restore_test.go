package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/mcda"
	"vada/internal/relation"
	"vada/internal/transducer"
)

// kbSnapshot is the knowledge base as it is persisted.
func kbSnapshot(t *testing.T, k *kb.KB) string {
	t.Helper()
	var buf strings.Builder
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// kbContent is kbSnapshot without the version: every fact and relation, byte
// for byte, and not the count of changes it took to get there. A restored
// wrangler's first run re-derives the cells a restart empties (matches are
// retracted and asserted again on the way), so it counts more changes to
// reach the same content.
func kbContent(t *testing.T, k *kb.KB) string {
	t.Helper()
	return regexp.MustCompile(`^\{"version":\d+,`).ReplaceAllString(kbSnapshot(t, k), "{")
}

// restoredFrom builds the scenario's wrangler again and merges what the live
// one's knowledge base persists as: all a restore is.
func restoredFrom(t *testing.T, live *Wrangler, sc *datagen.Scenario) *Wrangler {
	t.Helper()
	snap, err := kb.ReadSnapshot([]byte(kbSnapshot(t, live.KB)))
	if err != nil {
		t.Fatal(err)
	}
	w := BuildScenarioWrangler(sc)
	w.KB.Merge(snap)
	return w
}

// judgedCell marks the bedrooms cell of the first result row that has one as
// incorrect, and returns the annotation.
func judgedCell(t *testing.T, w *Wrangler) feedback.Item {
	t.Helper()
	res := w.Result()
	si, pi, bi := res.Schema.AttrIndex("street"), res.Schema.AttrIndex("postcode"), res.Schema.AttrIndex("bedrooms")
	for _, row := range res.Tuples {
		if !row[si].IsNull() && !row[pi].IsNull() && !row[bi].IsNull() {
			return feedback.Item{Street: row[si].Str(), Postcode: row[pi].Str(), Attr: "bedrooms",
				Observed: row[bi], HasObserved: true}
		}
	}
	t.Fatal("no result row with a street, a postcode and a bedroom count")
	return feedback.Item{}
}

// bedroomsAt is the bedrooms cell of the result row the item annotates.
func bedroomsAt(t *testing.T, w *Wrangler, it feedback.Item) relation.Value {
	t.Helper()
	res := w.Result()
	si, pi, bi := res.Schema.AttrIndex("street"), res.Schema.AttrIndex("postcode"), res.Schema.AttrIndex("bedrooms")
	for _, row := range res.Tuples {
		if feedback.KeyOf(row[si].String(), row[pi].String()) == feedback.KeyOf(it.Street, it.Postcode) {
			return row[bi]
		}
	}
	t.Fatalf("no result row for %v", it)
	return relation.Null()
}

// TestRestoreIsLoadingTheKB: everything the API handed the wrangler — the
// target schema, the feedback items with the values the user saw and the ones
// they supplied, the priorities — is knowledge-base content. Building the
// wrangler again and merging the persisted knowledge base is the whole
// restore: nothing else is carried — what the suite's bodies remember of their
// inputs is for the process, and a restored session computes it once more —
// and the restored session's next stage yields the live session's facts and
// relations.
func TestRestoreIsLoadingTheKB(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 50)
	live := BuildScenarioWrangler(sc)
	converse(t, live, sc)
	judged := judgedCell(t, live)
	corrected := judged
	corrected.Corrected, corrected.HasCorrection = relation.Int(7), true
	for _, it := range []feedback.Item{judged, corrected} {
		live.AddFeedback(it)
		if _, err := live.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}

	restored := restoredFrom(t, live, sc)
	items := live.FeedbackItems()
	if n := len(items); n < 40 || !reflect.DeepEqual(items[n-1], corrected) || !reflect.DeepEqual(items[n-2], judged) {
		t.Fatalf("the live wrangler holds %d items ending %v", n, items[max(0, n-2):])
	}
	if got := restored.FeedbackItems(); !reflect.DeepEqual(got, items) {
		t.Errorf("feedback items differ:\nrestored %v\nlive     %v", got, items)
	}
	wantTarget, _ := live.TargetSchema()
	if got, ok := restored.TargetSchema(); !ok || !got.Equal(wantTarget) || !got.Equal(datagen.TargetSchema()) {
		t.Errorf("target schema %v (%v), the live one is %v", got, ok, wantTarget)
	}
	want, got := live.UserWeights(), restored.UserWeights()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("restored wrangler weighs %d criteria, the live one %d", len(got), len(want))
	}
	for c, ww := range want {
		if g, ok := got[c]; !ok || math.Float64bits(g) != math.Float64bits(ww) {
			t.Errorf("weight of %v: restored %v, live %v", c, g, ww)
		}
	}
	if got := referenceNames(restored.KB); len(got) != 1 || restored.KB.Relation(RelContextPrefix+got[0]) == nil {
		t.Errorf("data context lost: %v", got)
	}

	// One more stage on both ends.
	more := OracleFeedback(sc, live.Result(), 20, 11)
	for _, w := range []*Wrangler{live, restored} {
		w.AddFeedback(more...)
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := kbContent(t, live.KB), kbContent(t, restored.KB); a != b {
		t.Errorf("a further feedback stage left different knowledge bases (%d and %d bytes)", len(a), len(b))
	}
}

// TestCorrectionAfterJudgementApplies: a cell judged incorrect is emptied;
// the correction that arrives for it later asserts no new fb_item fact — the
// judgement is the same — and still has to reach the result with the stage
// that carries it.
func TestCorrectionAfterJudgementApplies(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 100)
	w := BuildScenarioWrangler(sc)
	for _, then := range []func(){func() {}, func() { w.AddDataContext(sc.AddressRef) }} {
		then()
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	judged := judgedCell(t, w)
	w.AddFeedback(judged)
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := bedroomsAt(t, w, judged); !got.IsNull() {
		t.Fatalf("the cell judged incorrect reads %v, want null", got)
	}
	facts := w.KB.Count(PredFeedback)

	corrected := judged
	corrected.Corrected, corrected.HasCorrection = relation.Int(7), true
	w.AddFeedback(corrected)
	steps, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if w.KB.Count(PredFeedback) != facts {
		t.Fatal("the correction asserted a new fb_item fact: the test no longer covers a repeated judgement")
	}
	if got := bedroomsAt(t, w, judged); len(steps) == 0 || !got.Equal(relation.Int(7)) {
		t.Fatalf("after the correction's stage (%d steps) the cell reads %v, want 7", len(steps), got)
	}
}

// TestTargetSchemaChangeSameName: a target schema set again under its name
// asserts nothing new, and is a change all the same.
func TestTargetSchemaChangeSameName(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 100)
	w := BuildScenarioWrangler(sc)
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	full := datagen.TargetSchema()
	if w.Result().Schema.AttrIndex("crimerank") < 0 || w.Result().Schema.AttrIndex("type") < 0 {
		t.Fatalf("bootstrap result lacks target attributes: %v", w.Result().Schema)
	}
	narrow, err := full.Project(slices.DeleteFunc(full.AttrNames(), func(a string) bool { return a == "crimerank" || a == "type" })...)
	if err != nil {
		t.Fatal(err)
	}
	w.SetTargetSchema(narrow)
	steps, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(steps, func(s transducer.Step) bool { return s.Transducer == "schema-matching" }) {
		t.Errorf("schema matching did not run for the narrowed target:\n%s", transducer.TraceString(steps))
	}
	for _, a := range []string{"crimerank", "type"} {
		if w.Result().Schema.AttrIndex(a) >= 0 {
			t.Errorf("the result still has %q: %v", a, w.Result().Schema)
		}
	}
	if got, _ := w.TargetSchema(); !got.Equal(narrow) {
		t.Errorf("target schema %v, want %v", got, narrow)
	}
}

// TestUserModelFromFacts: the priority model is rebuilt from uc_criterion and
// uc_priority facts, read back from a persisted knowledge base — which keeps
// no assertion order — and weighs bit for bit as the model that was set,
// explicit criteria and restated pairs included.
func TestUserModelFromFacts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	w := NewWrangler()
	for i := 0; i < 2000; i++ {
		n := 3 + rng.Intn(4)
		crits := make([]mcda.Criterion, n)
		for j := range crits {
			crits[j] = mcda.Criterion{Metric: []string{"completeness", "accuracy", "consistency"}[rng.Intn(3)], Target: fmt.Sprintf("a%d", j)}
		}
		m := mcda.NewModel()
		for _, c := range crits {
			if rng.Intn(3) == 0 {
				m.AddCriterion(c) // registered before any statement mentions it
			}
		}
		state := func() {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				if err := m.AddComparison(crits[a], crits[b], mcda.Strength(1+rng.Intn(9))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.6 {
					if rng.Intn(2) == 0 {
						a, b = b, a
					}
					if err := m.AddComparison(crits[a], crits[b], mcda.Strength(1+rng.Intn(9))); err != nil {
						t.Fatal(err)
					}
					if a > b {
						a, b = b, a
					}
				}
			}
		}
		for r := rng.Intn(3); r > 0; r-- {
			state() // restates a pair, either way round, or adds one
		}
		w.SetUserContext(m)

		want, _, err := m.Weights()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := kb.ReadSnapshot([]byte(kbSnapshot(t, w.KB)))
		if err != nil {
			t.Fatal(err)
		}
		for name, got := range map[string]map[mcda.Criterion]float64{"live": w.UserWeights(), "persisted": userWeights(snap)} {
			if len(got) != len(want) {
				t.Fatalf("model %d, %s: %d weights, want %d", i, name, len(got), len(want))
			}
			for c, ww := range want {
				if g, ok := got[c]; !ok || math.Float64bits(g) != math.Float64bits(ww) {
					t.Fatalf("model %d, %s: weight of %v is %v, the model's is %v", i, name, c, g, ww)
				}
			}
		}
	}
}

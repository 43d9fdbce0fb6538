package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/match"
	"vada/internal/relation"
	"vada/internal/transducer"
)

// wrangled drives the whole pay-as-you-go conversation, so every transducer
// of the standard suite has executed and has an input set.
func wrangled(t *testing.T) *Wrangler {
	t.Helper()
	sc := testScenario(t, 50)
	w := BuildScenarioWrangler(sc)
	converse(t, w, sc)
	return w
}

func converse(t *testing.T, w *Wrangler, sc *datagen.Scenario) {
	t.Helper()
	ctx := context.Background()
	run := func() {
		t.Helper()
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	run()
	w.AddDataContext(sc.AddressRef)
	run()
	w.AddFeedback(OracleFeedback(sc, w.Result(), 40, 5)...)
	run()
	w.SetUserContext(CrimeAnalysisUserContext())
	run()
}

// TestSuiteInputSetsComplete re-executes every transducer of the standard
// suite at quiescence through a recording handle on the knowledge base:
// whatever its dependency and its body touch — facts, relations, cells —
// must be in the input set the orchestrator holds for it from the
// conversation, or be md_match for a matchWriter. A read outside the set is
// a change the orchestrator would sleep through.
func TestSuiteInputSetsComplete(t *testing.T) {
	w := wrangled(t)
	ctx := context.Background()
	version := w.KB.Version()
	for _, tr := range w.reg.All() {
		stored := w.orch.Inputs(tr.Name())
		if stored == nil {
			t.Errorf("%s never executed in a full conversation", tr.Name())
			continue
		}
		rec := w.KB.Recording()
		_, depErr := tr.Dependency().Satisfied(rec, w.engine)
		_, runErr := tr.Run(ctx, rec)
		touched, _ := rec.Reads()
		if depErr != nil || runErr != nil {
			t.Fatalf("%s: %v / %v", tr.Name(), depErr, runErr)
		}
		_, republishes := tr.(matchWriter)
		for _, key := range touched {
			if !slices.Contains(stored, key) && !(republishes && key == kb.FactsKey(PredMatch)) {
				t.Errorf("%s touched %q, which is outside its input set %v", tr.Name(), key, stored)
			}
		}
	}
	if w.KB.Version() != version {
		t.Fatalf("re-executing the suite at quiescence moved the KB from v%d to v%d: a body is not idempotent", version, w.KB.Version())
	}

	// instance-matching is where the time goes; its inputs are the sources,
	// the data context and their registration, nothing downstream.
	for _, key := range w.orch.Inputs("instance-matching") {
		ok := (key.Kind == kb.KeyFacts && (key.Name == PredSourceInstances || key.Name == PredDCInstances || key.Name == PredReference)) ||
			(key.Kind == kb.KeyRelation && (strings.HasPrefix(key.Name, RelSourcePrefix) || strings.HasPrefix(key.Name, RelContextPrefix))) ||
			key == kb.RelationsKey(RelSourcePrefix)
		if !ok {
			t.Errorf("instance-matching depends on %q", key)
		}
	}

	// mapping-selection ranks from what quality assessment published: its
	// inputs are the reports, the mappings, which results exist and the user
	// context — no result relation, which would have it run (and assess) after
	// every repair.
	selection := w.orch.Inputs("mapping-selection")
	for _, want := range []kb.Key{kb.ExternalKey(string(cellReports)), kb.ExternalKey(string(cellMappings)),
		kb.RelationsKey(RelResultPrefix), kb.FactsKey(PredQuality), kb.FactsKey(PredCriterion), kb.FactsKey(PredPriority)} {
		if !slices.Contains(selection, want) {
			t.Errorf("mapping-selection does not depend on %q: %v", want, selection)
		}
	}
	for _, key := range selection {
		if key.Kind == kb.KeyRelation || key == kb.ExternalKey(string(cellCFDs)) || key == kb.FactsKey(PredAccuracy) {
			t.Errorf("mapping-selection depends on %q", key)
		}
	}
}

// invariantNetwork checks between every two steps that md_match is what its
// writers' shares combine to.
type invariantNetwork struct {
	transducer.NetworkTransducer
	check func()
}

func (n invariantNetwork) Select(ready []transducer.Transducer, k *kb.KB, hist []transducer.Step) transducer.Transducer {
	n.check()
	return n.NetworkTransducer.Select(ready, k, hist)
}

// TestMatchCellWritersRepublish pins the invariant that lets the three
// matchWriters (schema matching, instance matching, feedback assimilation)
// leave md_match out of their input sets: each republishes md_match from all
// three shares — the two match cells and md_accuracy — in the same body that
// derives its own, so after every step md_match equals what any of them would
// publish.
func TestMatchCellWritersRepublish(t *testing.T) {
	var w *Wrangler
	steps := 0
	keys := func(ts []relation.Tuple) []string {
		out := make([]string, len(ts))
		for i, tu := range ts {
			out[i] = tu.Key()
		}
		sort.Strings(out)
		return out
	}
	sc := testScenario(t, 50)
	w = BuildScenarioWrangler(sc, WithNetwork(invariantNetwork{
		NetworkTransducer: transducer.NewGenericNetwork(),
		check: func() {
			steps++
			published := keys(w.KB.Facts(PredMatch))
			combined := keys(matchFacts(feedback.ReviseMatchScores(
				match.Combine(cellNameMatches.get(w.KB), cellInstMatches.get(w.KB)), accuracyBySource(w.KB))))
			if !reflect.DeepEqual(published, combined) {
				t.Fatalf("before pick %d: md_match holds %d facts, the shares combine to %d:\n%v\n%v",
					steps, len(published), len(combined), published, combined)
			}
		},
	}))
	converse(t, w, sc)
	if steps < 20 || w.KB.Count(PredMatch) == 0 {
		t.Fatalf("checked %d times over %d matches: the conversation did not exercise the writers", steps, w.KB.Count(PredMatch))
	}
	writers := map[string]bool{}
	for _, tr := range w.reg.All() {
		if _, ok := tr.(matchWriter); ok {
			writers[tr.Name()] = true
		}
	}
	for _, name := range []string{"schema-matching", "instance-matching", "feedback-assimilation"} {
		if !writers[name] {
			t.Errorf("%s is not registered as a matchWriter", name)
		}
	}
}

// TestUserContextSwitchSurvivesRestore: switching from one priority model to
// another replaces the uc_priority facts, so a wrangler rebuilt from the
// knowledge base weighs criteria exactly as the live one does — not by the
// union of every model the session ever had.
func TestUserContextSwitchSurvivesRestore(t *testing.T) {
	live := wrangled(t) // ends on the crime model
	live.SetUserContext(SizeAnalysisUserContext())
	if _, err := live.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := live.KB.Count(PredPriority), len(SizeAnalysisUserContext().Comparisons()); got != want {
		t.Fatalf("%d uc_priority facts after the switch, want the new model's %d", got, want)
	}

	snap, err := kb.ReadSnapshot([]byte(kbSnapshot(t, live.KB)))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewWrangler()
	restored.KB.Merge(snap)

	want, got := live.UserWeights(), restored.UserWeights()
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("restored wrangler weighs %d criteria, the live one %d", len(got), len(want))
	}
	for c, ww := range want {
		if g, ok := got[c]; !ok || math.Float64bits(g) != math.Float64bits(ww) {
			t.Errorf("weight of %v: restored %v, live %v", c, g, ww)
		}
	}
}

// TestUserContextEditedInPlace: the wrangler keeps the model as it stood
// when it was set. Editing the caller's model changes nothing until it is
// set again, and then — same pointer or not — mapping selection runs with
// the new weights.
func TestUserContextEditedInPlace(t *testing.T) {
	w := wrangled(t)
	ctx := context.Background()
	m := SizeAnalysisUserContext()
	w.SetUserContext(m)
	if _, err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	set := w.UserWeights()

	first := m.Comparisons()[0]
	if err := m.AddComparison(first.Less, first.More, 9); err != nil {
		t.Fatal(err)
	}
	if steps, err := w.Run(ctx); err != nil || len(steps) != 0 || !reflect.DeepEqual(w.UserWeights(), set) {
		t.Fatalf("editing the caller's model reached the wrangler before it was set: %d steps, err %v", len(steps), err)
	}

	w.SetUserContext(m)
	steps, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(steps, func(s transducer.Step) bool { return s.Transducer == "mapping-selection" }) {
		t.Errorf("the edited model was set again and mapping selection did not run:\n%s", transducer.TraceString(steps))
	}
	want, _, _ := m.Weights()
	if got := w.UserWeights(); !reflect.DeepEqual(got, want) {
		t.Errorf("weights %v, the edited model's are %v", got, want)
	}
}

func TestArchitectureShowsInputSets(t *testing.T) {
	arch := wrangled(t).Architecture()
	for _, want := range []string{
		"last read: facts src_extracted, facts src_registered, external core.sources",
		"facts md_accuracy",
		"facts dc_reference",
		"relation names src_*",
		"relation fb_items",
		"relation uc_target",
		"facts uc_criterion, facts uc_priority",
	} {
		if !strings.Contains(arch, want) {
			t.Errorf("architecture missing %q:\n%s", want, arch)
		}
	}
	if strings.Contains(NewWrangler().Architecture(), "last read:") {
		t.Error("a wrangler that never ran has no input sets to show")
	}
}

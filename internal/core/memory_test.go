package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/transducer"
)

// forget empties what the suite's bodies remember of their inputs — the
// executions, the assessments, the join profile, the matchWriters' last
// publication and fusion's last run — and every input set, so that the next
// run computes everything once more: what a restart does.
func forget(w *Wrangler) {
	cellExecuted.set(w.KB, nil)
	cellAssessed.set(w.KB, nil)
	cellJoins.set(w.KB, nil)
	cellPublished.set(w.KB, nil)
	cellFused.set(w.KB, nil)
	w.orch.ResetEligibility()
}

// conversationStages are the stages of the pay-as-you-go conversation the
// memory tests hold a wrangler to, after the bootstrap: a data context, two
// feedback rounds around a user context, and the first stage doing nothing.
func conversationStages(sc *datagen.Scenario) []func(w *Wrangler) {
	return []func(w *Wrangler){
		func(w *Wrangler) {},
		func(w *Wrangler) { w.AddDataContext(sc.AddressRef) },
		func(w *Wrangler) { w.AddFeedback(OracleFeedback(sc, w.Result(), 40, 5)...) },
		func(w *Wrangler) { w.SetUserContext(CrimeAnalysisUserContext()) },
		func(w *Wrangler) { w.AddFeedback(OracleFeedback(sc, w.Result(), 20, 11)...) },
	}
}

// memoryScenarios are the scenarios the memory tests converse over.
func memoryScenarios(t *testing.T, each func(label string, sc *datagen.Scenario)) {
	t.Helper()
	for _, n := range []int{60, 200} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties, cfg.Seed = n, seed
			each(fmt.Sprintf("n=%d seed=%d", n, seed), datagen.Generate(cfg))
		}
	}
}

// setMappings puts mappings in the mappings cell, as if mapping generation had
// derived them, and moves the knowledge base's version with a fact nobody
// reads, as the stage that made generation run would have: a value alone does
// not make the orchestrator look.
func setMappings(w *Wrangler, mappings []mapping.Mapping) {
	cellMappings.set(w.KB, mappings)
	w.KB.Assert("test_stage", relation.NewTuple(w.KB.Count("test_stage")))
}

func stepOf(t *testing.T, steps []transducer.Step, name string) transducer.Step {
	t.Helper()
	i := slices.IndexFunc(steps, func(s transducer.Step) bool { return s.Transducer == name })
	if i < 0 {
		t.Fatalf("%s did not run:\n%s", name, transducer.TraceString(steps))
	}
	return steps[i]
}

func hasNote(s transducer.Step, part string) bool {
	return slices.ContainsFunc(s.Report.Notes, func(n string) bool { return strings.Contains(n, part) })
}

// TestExecutionStampIsSound: what a body remembers decides only how much it
// computes, never what the knowledge base ends up holding. Over the
// pay-as-you-go conversation, after every stage one of two wranglers forgets
// everything and runs again — executing, assessing and profiling from scratch,
// raw results put over repaired ones and repaired again — and no fact and no
// relation changes; and stage after stage it holds what the wrangler that
// remembers holds.
func TestExecutionStampIsSound(t *testing.T) {
	ctx := context.Background()
	memoryScenarios(t, func(scenario string, sc *datagen.Scenario) {
		remembers, forgets := BuildScenarioWrangler(sc), BuildScenarioWrangler(sc)
		for i, stage := range conversationStages(sc) {
			label := fmt.Sprintf("%s stage %d", scenario, i)
			for _, w := range []*Wrangler{remembers, forgets} {
				stage(w)
				if _, err := w.Run(ctx); err != nil {
					t.Fatal(label, err)
				}
			}
			want := kbContent(t, remembers.KB)
			if got := kbContent(t, forgets.KB); got != want {
				t.Fatalf("%s: the wrangler that forgot holds another knowledge base (%d and %d bytes)", label, len(got), len(want))
			}
			forget(forgets)
			steps, err := forgets.Run(ctx)
			if err != nil {
				t.Fatal(label, err)
			}
			if i > 0 && !hasNote(stepOf(t, steps, "mapping-execution"), fmt.Sprintf("executed %d of %[1]d", len(forgets.Mappings()))) {
				t.Fatalf("%s: having forgotten, execution did not execute every mapping:\n%s", label, transducer.TraceString(steps))
			}
			if got := kbContent(t, forgets.KB); got != want {
				t.Fatalf("%s: computing everything once more changed the knowledge base:\n%s", label, transducer.TraceString(steps))
			}
		}
	})
}

// TestGenerationWakesOnCorrespondences: mapping generation reads the 1:1
// correspondences the matchWriters derive, not md_match. Over the conversation
// of TestExecutionStampIsSound, a feedback round that leaves the
// correspondences alone — it revises scores, and md_match with them — runs no
// generation step, and a round that changes one runs it. (A round may change
// one and change it back: derive re-puts the cell only for another value, so a
// cell put again is a cell that changed.)
func TestGenerationWakesOnCorrespondences(t *testing.T) {
	ctx := context.Background()
	still, changed := 0, 0
	memoryScenarios(t, func(scenario string, sc *datagen.Scenario) {
		w := BuildScenarioWrangler(sc)
		for i, stage := range conversationStages(sc) {
			label := fmt.Sprintf("%s stage %d", scenario, i)
			corrs, before := cellCorrs.get(w.KB), kbContent(t, w.KB)
			stage(w)
			steps, err := w.Run(ctx)
			if err != nil {
				t.Fatal(label, err)
			}
			if i != 2 && i != 4 {
				continue
			}
			if kbContent(t, w.KB) == before || w.KB.Count(PredMatch) == 0 {
				t.Fatalf("%s: the feedback round changed nothing", label)
			}
			generated := slices.ContainsFunc(steps, func(s transducer.Step) bool { return s.Transducer == "mapping-generation" })
			if sameCell(cellCorrs.get(w.KB), corrs) {
				still++
				if generated {
					t.Errorf("%s: the correspondences stayed and mapping generation ran:\n%s", label, transducer.TraceString(steps))
				}
			} else {
				changed++
				if !generated {
					t.Errorf("%s: the correspondences changed and mapping generation did not run:\n%s", label, transducer.TraceString(steps))
				}
			}
		}
	})
	if still == 0 || changed == 0 {
		t.Fatalf("%d feedback rounds left the correspondences alone and %d changed one: the conversation must do both", still, changed)
	}
}

// TestExecutionRetryKeepsRepairs: a mapping that fails to execute costs the
// mappings before it nothing. The failing run leaves their repaired results
// alone, and the retry, once the program is fixed, executes the fixed mapping
// only — it used to execute every mapping again.
func TestExecutionRetryKeepsRepairs(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 60)
	w := BuildScenarioWrangler(sc)
	for _, then := range []func(){func() {}, func() { w.AddDataContext(sc.AddressRef) }} {
		then()
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	good := w.Mappings()
	repaired := map[string]*relation.Relation{}
	for _, m := range good {
		repaired[m.ID] = w.KB.Relation(RelResultPrefix + m.ID)
	}
	intact := func(when string) {
		t.Helper()
		for id, rel := range repaired {
			if w.KB.Relation(RelResultPrefix+id) != rel {
				t.Errorf("%s: res_%s was put again over its repaired rows", when, id)
			}
		}
	}
	late := good[0]
	late.ID = "m_zz_late" // sorts after the generated ones: executed last
	late.Program = "this is not a program"

	setMappings(w, append(slices.Clone(good), late))
	steps, err := w.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if failed := stepOf(t, steps, "mapping-execution"); failed.Err == nil || len(failed.Report.RelationsWritten) != 0 {
		t.Fatalf("the broken program executed (%v) or a good mapping was put again %v", failed.Err, failed.Report.RelationsWritten)
	}
	intact("after the failing run")

	late.Program = good[0].Program
	setMappings(w, append(slices.Clone(good), late))
	if steps, err = w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	retry := stepOf(t, steps, "mapping-execution")
	if want := fmt.Sprintf("executed 1 of %d mappings, 0 dropped", len(good)+1); retry.Err != nil || !hasNote(retry, want) ||
		!slices.Equal(retry.Report.RelationsWritten, []string{RelResultPrefix + late.ID}) {
		t.Fatalf("the retry: err %v, notes %q, wrote %v; want %q and the fixed mapping's result alone",
			retry.Err, retry.Report.Notes, retry.Report.RelationsWritten, want)
	}
	intact("after the retry")
	if !w.KB.Has(PredMapped, relation.NewTuple(late.ID, w.KB.RelationCardinality(RelResultPrefix+late.ID))) {
		t.Errorf("md_mapped lacks the fixed mapping: %v", w.KB.Facts(PredMapped))
	}
}

// eagerSelection is a network that picks mapping selection whenever it is
// ready: before quality assessment has seen what execution just put.
type eagerSelection struct{ transducer.NetworkTransducer }

func (n eagerSelection) Select(ready []transducer.Transducer, k *kb.KB, hist []transducer.Step) transducer.Transducer {
	if i := slices.IndexFunc(ready, func(t transducer.Transducer) bool { return t.Name() == "mapping-selection" }); i >= 0 {
		return ready[i]
	}
	return n.NetworkTransducer.Select(ready, k, hist)
}

// TestSelectionWaitsForReports: mapping selection ranks from the reports
// quality assessment published and never from a partial list. A mapping with
// a result and no report yet — selection picked first by a custom network, or
// the cells of a restored session still empty — makes it leave md_selected
// alone; a mapping with neither is simply not a candidate.
func TestSelectionWaitsForReports(t *testing.T) {
	ctx := context.Background()
	sc := testScenario(t, 60)
	w := wrangled(t)
	selection := w.selectionTransducer() // its state is the knowledge base
	selected := kbContent(t, w.KB)
	reports := cellReports.get(w.KB)
	if len(reports) < 2 || len(reports) != len(w.Mappings()) {
		t.Fatalf("%d reports for %d mappings", len(reports), len(w.Mappings()))
	}
	first := w.Mappings()[0].ID
	for label, partial := range map[string]map[string]quality.Report{
		"no reports": nil,
		"one short":  {first: reports[first]},
	} {
		cellReports.set(w.KB, partial)
		rep, err := selection.Run(ctx, w.KB)
		if err != nil || rep.Changed() || len(rep.Notes) != 1 || !strings.HasPrefix(rep.Notes[0], "waiting for the quality report of ") {
			t.Errorf("%s: selection reports %+v, %v: want it to wait", label, rep, err)
		}
		if kbContent(t, w.KB) != selected {
			t.Fatalf("%s: selection changed the knowledge base", label)
		}
	}
	// The mapping whose report is missing has no result either: the others
	// are ranked without it.
	last := w.Mappings()[len(reports)-1]
	w.KB.DropRelation(RelResultPrefix + last.ID)
	rest := map[string]quality.Report{}
	for id, r := range reports {
		if id != last.ID {
			rest[id] = r
		}
	}
	cellReports.set(w.KB, rest)
	if rep, err := selection.Run(ctx, w.KB); err != nil || len(rep.Notes) == 0 || strings.HasPrefix(rep.Notes[0], "waiting") ||
		slices.Contains(w.SelectedMappings(), last.ID) || len(w.SelectedMappings()) == 0 {
		t.Errorf("without %s: selection reports %+v, %v and selected %v", last.ID, rep, err, w.SelectedMappings())
	}

	// End to end: a network that runs selection ahead of assessment makes it
	// wait for the report of a mapping that is new, and both the conversation
	// and the new mapping's stage end where the generic network's do.
	plain := BuildScenarioWrangler(sc)
	eager := BuildScenarioWrangler(sc, WithNetwork(eagerSelection{transducer.NewGenericNetwork()}))
	for _, w := range []*Wrangler{plain, eager} {
		converse(t, w, sc)
		extra := w.Mappings()[0]
		extra.ID = "m_zz_extra"
		setMappings(w, append(w.Mappings(), extra))
		if _, err := w.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.ContainsFunc(eager.Trace(), func(s transducer.Step) bool { return hasNote(s, "waiting for the quality report of m_zz_extra") }) {
		t.Errorf("selection never had to wait under the eager network:\n%s", transducer.TraceString(eager.Trace()))
	}
	if _, assessed := cellReports.get(eager.KB)["m_zz_extra"]; !assessed || kbContent(t, eager.KB) != kbContent(t, plain.KB) {
		t.Errorf("the eager network ended on another knowledge base (new mapping assessed: %v):\n%s", assessed, transducer.TraceString(eager.Trace()))
	}
}

// TestDroppedMappingIsForgotten: a mapping that leaves the mappings cell loses
// its result and what execution remembered of it, so that it is executed anew
// should it come back.
func TestDroppedMappingIsForgotten(t *testing.T) {
	ctx := context.Background()
	w := wrangled(t)
	all := w.Mappings()
	gone := all[len(all)-1]
	for i, mappings := range [][]mapping.Mapping{all[:len(all)-1], all} {
		setMappings(w, mappings)
		steps, err := w.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		_, remembered := cellExecuted.get(w.KB)[gone.ID]
		want := []string{"executed 0 of", "1 dropped"}
		if i == 1 {
			want = []string{"executed 1 of", "0 dropped"}
		}
		if s := stepOf(t, steps, "mapping-execution"); !hasNote(s, want[0]) || !hasNote(s, want[1]) ||
			remembered != (i == 1) || w.KB.HasRelation(RelResultPrefix+gone.ID) != (i == 1) {
			t.Fatalf("round %d: notes %q, remembered %v, result present %v", i, s.Report.Notes, remembered, w.KB.HasRelation(RelResultPrefix+gone.ID))
		}
	}
}

package session_test

import (
	"context"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/session"
)

// TestPayAsYouGoMonotoneImprovement walks the four demonstration steps of §3
// through a session on the scenario and holds the scores its events carry to
// the paper's central claim.
func TestPayAsYouGoMonotoneImprovement(t *testing.T) {
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 150
	sc := datagen.Generate(cfg)
	sess := session.New("payg", core.BuildScenarioWrangler(sc), session.WithScenario(sc, 7))
	for _, stage := range []func() (session.Event, error){
		func() (session.Event, error) { return sess.Bootstrap(ctx) },
		func() (session.Event, error) { return sess.AddDataContext(ctx, nil) },
		func() (session.Event, error) { return sess.AddFeedback(ctx, nil, 100) },
		func() (session.Event, error) { return sess.SetUserContext(ctx, core.CrimeAnalysisUserContext()) },
	} {
		if _, err := stage(); err != nil {
			t.Fatal(err)
		}
	}
	stages := sess.Events()
	if len(stages) != 4 {
		t.Fatalf("stages = %d", len(stages))
	}
	names := []string{"bootstrap", "data-context", "feedback", "user-context"}
	for i, s := range stages {
		if s.Stage != names[i] {
			t.Fatalf("stage %d = %s", i, s.Stage)
		}
		if s.Score == nil {
			t.Fatalf("stage %s left no result to score", s.Stage)
		}
	}
	// The paper's central claim: the more information provided, the better
	// the outcome. Each step improves the dimension it addresses and none
	// regresses the others (small tolerance for fusion reshuffling):
	//   data context → identification: F1 and crimerank completeness up;
	//   feedback     → correctness: value accuracy up (or already perfect);
	//   user context → selection: quality preserved, priorities applied.
	const eps = 0.02
	if stages[1].Score.F1 <= stages[0].Score.F1 {
		t.Errorf("data context should improve F1: %.3f -> %.3f",
			stages[0].Score.F1, stages[1].Score.F1)
	}
	if stages[1].Score.Completeness["crimerank"] <= stages[0].Score.Completeness["crimerank"] {
		t.Errorf("data context should improve crimerank completeness: %.3f -> %.3f",
			stages[0].Score.Completeness["crimerank"], stages[1].Score.Completeness["crimerank"])
	}
	if stages[2].Score.ValueAccuracy < stages[1].Score.ValueAccuracy {
		t.Errorf("feedback should not regress value accuracy: %.3f -> %.3f",
			stages[1].Score.ValueAccuracy, stages[2].Score.ValueAccuracy)
	}
	if stages[2].Score.ValueAccuracy < 0.98 {
		t.Errorf("after feedback, asserted values should be nearly all correct: %.3f",
			stages[2].Score.ValueAccuracy)
	}
	for i := 2; i < 4; i++ {
		if stages[i].Score.F1 < stages[i-1].Score.F1-eps {
			t.Errorf("stage %s regressed F1: %.3f -> %.3f",
				stages[i].Stage, stages[i-1].Score.F1, stages[i].Score.F1)
		}
		if stages[i].Score.ValueAccuracy < stages[i-1].Score.ValueAccuracy-eps {
			t.Errorf("stage %s regressed value accuracy: %.3f -> %.3f",
				stages[i].Stage, stages[i-1].Score.ValueAccuracy, stages[i].Score.ValueAccuracy)
		}
	}
	// crimerank completeness must be positive once the deprivation join is
	// in play, and must not collapse under the crime-analysis user context.
	if stages[3].Score.Completeness["crimerank"] <= 0 {
		t.Error("crimerank should be populated by the join mapping")
	}
}

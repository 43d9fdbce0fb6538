// Command asyncruns demonstrates the asynchronous execution layer: the
// whole pay-as-you-go conversation submitted to a RunEngine as one
// declarative Plan — a single cancellable run whose queued → running →
// stage k/n → terminal transitions stream over the session's event
// subscription, interleaved with the stage events themselves. It is the
// programmatic twin of vada-server's POST .../plans + SSE surface.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vada"
)

func main() {
	sc := vada.GenerateScenario(vada.DefaultScenarioConfig())
	mgr := vada.NewSessionManager()
	sess, err := mgr.Create(vada.BuildScenarioWrangler(sc), vada.WithScenario(sc, 1))
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe before submitting: the channel carries every stage event
	// and, because of the WithRunNotify hook below, every run transition.
	_, events, cancel := sess.Subscribe(32)
	defer cancel()

	engine := vada.NewRunEngine(
		vada.WithRunWorkers(4),
		vada.WithRunNotify(func(run vada.Run) {
			sess.PublishTransition(run.Transition())
		}),
	)
	defer engine.Close()

	// The four stages as one declarative plan. Each StageRequest resolves
	// against the stage table before submission; the engine runs
	// them back to back as one run, so a failure or cancel stops the
	// remaining stages.
	plan := vada.Plan{Stages: []vada.StageRequest{
		{Stage: vada.StageBootstrap},
		{Stage: vada.StageDataContext},
		{Stage: vada.StageFeedback, Payload: []byte(`{"budget": 100}`)},
		{Stage: vada.StageUserContext, Payload: []byte(`{"model": "crime"}`)},
	}}
	run, err := engine.SubmitPlan(context.Background(), sess, plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %d-stage plan as run %s (%s)\n", len(plan.Stages), run.ID, run.State)

	// Drive everything off the event stream — no polling.
	for ev := range events {
		switch ev.Type {
		case vada.EventTransition:
			t := ev.Run
			fmt.Printf("run %s %-9s stage %d/%d (%s)%s\n",
				t.RunID, t.State, t.StageIndex+1, t.StageCount, t.Stage, suffix(t.Error))
			if t.State == string(vada.RunSucceeded) || t.State == string(vada.RunFailed) ||
				t.State == string(vada.RunCancelled) {
				goto done
			}
		default:
			fmt.Printf("event #%d %-14s steps=%-3d%s\n", ev.Seq, ev.Stage, ev.Steps, score(ev))
		}
	}
done:

	// The run resource records every completed stage event and its timing.
	final, err := engine.Get(run.ID)
	if err != nil {
		log.Fatal(err)
	}
	took := "-"
	if final.StartedAt != nil && final.FinishedAt != nil {
		took = final.FinishedAt.Sub(*final.StartedAt).Round(time.Millisecond).String()
	}
	fmt.Printf("plan run %s: %s after %s, %d/%d stage events recorded\n",
		final.ID, final.State, took, len(final.Events), final.StageCount())
}

func suffix(err string) string {
	if err == "" {
		return ""
	}
	return " — " + err
}

func score(ev vada.SessionEvent) string {
	if ev.Score == nil {
		return ""
	}
	return fmt.Sprintf(" F1=%.3f val-acc=%.3f", ev.Score.F1, ev.Score.ValueAccuracy)
}

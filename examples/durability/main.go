// Command durability demonstrates the persistence subsystem: a session
// wrangles the paper's first three pay-as-you-go steps, is exported as a
// versioned snapshot envelope, "the process dies", and a fresh manager and
// run engine restore it — identical result rows, identical stage-event
// history, the run history of the engine's retention ring intact — and the
// conversation continues where it stopped. It is the programmatic twin of
// vada-server's -data-dir / GET .../export / POST .../import surface.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vada"
)

func main() {
	ctx := context.Background()
	cfg := vada.DefaultScenarioConfig()
	cfg.NProperties = 120
	sc := vada.GenerateScenario(cfg)

	// ---- life before the crash -------------------------------------------
	mgr := vada.NewSessionManager()
	sess, err := mgr.Create(vada.BuildScenarioWrangler(sc),
		vada.WithSessionName("durable-demo"), vada.WithScenario(sc, 1))
	if err != nil {
		log.Fatal(err)
	}
	engine := vada.NewRunEngine(vada.WithRunWorkers(2))

	// Bootstrap and data context synchronously, feedback as an async run so
	// the retention ring has a 202-style resource to survive the restart.
	if _, err := sess.Bootstrap(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		log.Fatal(err)
	}
	run, err := engine.Submit(sess.ID(), vada.StageFeedback,
		func(ctx context.Context) (vada.SessionEvent, error) {
			return sess.AddFeedback(ctx, nil, 100)
		})
	if err != nil {
		log.Fatal(err)
	}
	for {
		if r, _ := engine.Get(run.ID); r.State.Terminal() {
			fmt.Printf("run %s: %s\n", r.ID, r.State)
			break
		}
	}
	before, err := sess.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: session %s, %d events, %d result rows\n",
		sess.ID(), len(sess.Events()), before.Cardinality())

	// ---- export: one checksummed envelope --------------------------------
	path := filepath.Join(os.TempDir(), sess.ID()+".vsnap")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := vada.ExportSession(f, sess, engine); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	info, _ := os.Stat(path)
	fmt.Printf("exported %s (%d bytes)\n", path, info.Size())

	// The process "dies": everything in memory is gone.
	engine.Close()
	mgr.Close(sess.ID())

	// ---- restart: restore from the envelope ------------------------------
	mgr2 := vada.NewSessionManager()
	engine2 := vada.NewRunEngine(vada.WithRunWorkers(2))
	defer engine2.Close()
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := vada.ReadSessionSnapshot(g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}
	restored, err := vada.RestoreSessionInto(mgr2, engine2, snap)
	if err != nil {
		log.Fatal(err)
	}

	after, err := restored.Result()
	if err != nil {
		log.Fatal(err)
	}
	identical := before.Identical(after)
	histRun, err := engine2.Get(run.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after:  session %s, %d events, %d result rows (identical: %v)\n",
		restored.ID(), len(restored.Events()), after.Cardinality(), identical)
	fmt.Printf("run history survived: %s is %s\n", histRun.ID, histRun.State)

	// ---- and the conversation continues ----------------------------------
	ev, err := restored.SetUserContext(ctx, vada.CrimeAnalysisUserContext())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-restore stage %q is event #%d (%d orchestration steps)\n",
		ev.Stage, ev.Seq, ev.Steps)
}

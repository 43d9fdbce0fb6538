package store

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/session"
)

// stageRecords wrangles a scenario of n properties through bootstrap, data
// context, two feedback rounds and a user-context switch, and returns the
// stage record each stage commits.
func stageRecords(tb testing.TB, n int) []Record {
	tb.Helper()
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = 3
	sc := datagen.Generate(cfg)
	var recs []Record
	sess := session.New("enc", core.BuildScenarioWrangler(sc),
		session.WithScenario(sc, 3),
		session.WithStageCommitHook(func(_ context.Context, s *session.Session, ev session.Event) func() {
			recs = append(recs, Record{Seq: uint64(len(recs) + 1), At: ev.At,
				Stage: &StageRecord{Event: ev, Delta: s.Wrangler().CutChangeLog()}})
			return nil
		}))
	sess.Wrangler().StartChangeLog()
	model, err := core.UserContextByName("crime")
	if err != nil {
		tb.Fatal(err)
	}
	for _, stage := range []func() (session.Event, error){
		func() (session.Event, error) { return sess.Bootstrap(ctx) },
		func() (session.Event, error) { return sess.AddDataContext(ctx, nil) },
		func() (session.Event, error) { return sess.AddFeedback(ctx, nil, 40) },
		func() (session.Event, error) { return sess.AddFeedback(ctx, nil, 40) },
		func() (session.Event, error) { return sess.SetUserContext(ctx, model) },
	} {
		if _, err := stage(); err != nil {
			tb.Fatal(err)
		}
	}
	return recs
}

// TestRecordEncodingIsReflection holds the hand-framed journal record to
// json.Marshal of the same Record: the golden records (legacy fields
// included) and every stage record of a wrangled session.
func TestRecordEncodingIsReflection(t *testing.T) {
	recs := append(goldenRecords(), stageRecords(t, 60)...)
	for _, rec := range recs {
		got, err := appendRecord(nil, &rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d:\n got %.300s\nwant %.300s", rec.Seq, got, want)
		}
	}
}

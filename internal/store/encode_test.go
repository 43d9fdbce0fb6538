package store

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/metrics"
	"vada/internal/runs"
	"vada/internal/session"
)

// runRecords wrangles a scenario of n properties through bootstrap, data
// context, two feedback rounds and a user-context switch, one run each, and
// returns the record CommitRun writes for each run.
func runRecords(tb testing.TB, n int) []Record {
	tb.Helper()
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = 3
	sc := datagen.Generate(cfg)
	sess := session.New("enc", core.BuildScenarioWrangler(sc), session.WithScenario(sc, 3))
	var recs []Record
	for i, req := range []session.StageRequest{
		{Stage: session.StageBootstrap},
		{Stage: session.StageDataContext},
		{Stage: session.StageFeedback, Payload: json.RawMessage(`{"budget": 40}`)},
		{Stage: session.StageFeedback, Payload: json.RawMessage(`{"budget": 40}`)},
		{Stage: session.StageUserContext, Payload: json.RawMessage(`{"model": "crime"}`)},
	} {
		st, payload, err := session.Resolve(req)
		if err != nil {
			tb.Fatal(err)
		}
		ev, err := st.Apply(ctx, sess, payload)
		if err != nil {
			tb.Fatal(err)
		}
		k := sess.Wrangler().KB
		started := ev.At.Add(-ev.Duration)
		recs = append(recs, Record{Seq: uint64(i + 1), At: ev.At,
			Run: &runs.Run{ID: fmt.Sprintf("r%04d-enc", i+1), SessionID: "enc", Stage: req.Stage,
				State: runs.StateSucceeded, CreatedAt: started, StartedAt: &started, FinishedAt: &ev.At, Event: &ev},
			Asked: &Asked{Requests: []session.StageRequest{session.Applied(req, payload)}, Events: []session.Event{ev},
				Version: k.Version(), Digest: k.Digest()}})
	}
	return recs
}

// TestRecordEncodingIsReflection holds what a run's record is on disk to
// encoding/json's reflection over Record: the records of a wrangled session,
// appended, read back as they were written, frame payload for payload.
func TestRecordEncodingIsReflection(t *testing.T) {
	recs := runRecords(t, 60)
	path := filepath.Join(t.TempDir(), "enc.vjournal")
	j, _, err := openJournal(path, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		rec := recs[i]
		if err := j.append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}
	_, res, err := openJournal(path, metrics.NewRegistry())
	if err != nil || res.Damaged || len(res.Records) != len(recs) {
		t.Fatalf("reading the journal back: %v, %d records (damaged %v)", err, len(res.Records), res.Damaged)
	}
	for i, rec := range res.Records {
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d:\n got %.300s\nwant %.300s", rec.Seq, got, want)
		}
	}
}

package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/metrics"
	"vada/internal/runs"
	"vada/internal/session"
)

// benchSession builds an established large-KB session — bootstrap and data
// context done, then a feedback round — plus the record that steady-state
// feedback run appends, so both benchmarks measure the same workload: "one
// more run completed on a session with an accumulated knowledge base".
func benchSession(b *testing.B, n int) (*session.Session, *Record) {
	b.Helper()
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = 11
	sc := datagen.Generate(cfg)
	sess := session.New("bench", core.BuildScenarioWrangler(sc), session.WithScenario(sc, 11))
	if _, err := sess.Bootstrap(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		b.Fatal(err)
	}
	req := session.StageRequest{Stage: session.StageFeedback, Payload: json.RawMessage(`{"budget":40}`)}
	st, payload, err := session.Resolve(req)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := st.Apply(ctx, sess, payload)
	if err != nil {
		b.Fatal(err)
	}
	k := sess.Wrangler().KB
	return sess, &Record{At: ev.At, Run: &runs.Run{ID: "r-bench", SessionID: "bench", Stage: req.Stage, State: runs.StateSucceeded},
		Asked: &Asked{Requests: []session.StageRequest{req}, Events: []session.Event{ev}, Version: k.Version(), Digest: k.Digest()}}
}

// BenchmarkSnapshotPerRun is what durability would cost without the
// journal: every completed run rewrites (and fsyncs) the session's full
// snapshot envelope — O(KB) bytes per run, however small the run's delta.
// bytes/op is the on-disk write.
func BenchmarkSnapshotPerRun(b *testing.B) {
	sess, _ := benchSession(b, 300)
	path := filepath.Join(b.TempDir(), "bench.vsnap")
	b.ResetTimer()
	b.ReportAllocs()
	var written int64
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := ExportSession(f, sess, nil); err != nil {
			b.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			b.Fatal(err)
		}
		info, err := f.Stat()
		if err != nil {
			b.Fatal(err)
		}
		written += info.Size()
		f.Close()
	}
	b.ReportMetric(float64(written)/float64(b.N), "disk-bytes/op")
}

// BenchmarkJournalAppendPerRun is the journal's durability cost for the
// same workload: one framed, fsynced record of what the run was asked —
// o(snapshot-size) bytes per run on a large-KB session.
func BenchmarkJournalAppendPerRun(b *testing.B) {
	_, rec := benchSession(b, 300)
	j, _, err := openJournal(filepath.Join(b.TempDir(), "bench.vjournal"), metrics.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	defer j.close()
	b.ResetTimer()
	b.ReportAllocs()
	var written int64
	for i := 0; i < b.N; i++ {
		r := *rec
		if err := j.append(&r); err != nil {
			b.Fatal(err)
		}
		if err := j.sync(); err != nil {
			b.Fatal(err)
		}
		// Compact periodically so the file does not grow unboundedly over
		// the run, as the replay budget does.
		if i%1024 == 1023 {
			written += j.written.bytes
			if err := j.reset(); err != nil {
				b.Fatal(err)
			}
		}
	}
	written += j.written.bytes
	b.ReportMetric(float64(written)/float64(b.N), "disk-bytes/op")
}

// BenchmarkRunRecordEncode is the journal encoding of one run's record,
// framed, at n=60: a bootstrap (no payload) and a feedback round (its
// payload, and the oracle-scored event). MB/s is of the frame's bytes.
func BenchmarkRunRecordEncode(b *testing.B) {
	recs := runRecords(b, 60)
	for _, bc := range []struct {
		name string
		rec  Record
	}{{"bootstrap", recs[0]}, {"feedback", recs[2]}} {
		b.Run(bc.name, func(b *testing.B) {
			encode := func() []byte {
				frame, err := appendFrame(nil, kindAsked, func(p []byte) ([]byte, error) {
					data, err := json.Marshal(&bc.rec)
					return append(p, data...), err
				})
				if err != nil {
					b.Fatal(err)
				}
				return frame
			}
			b.SetBytes(int64(len(encode())))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encode()
			}
		})
	}
}

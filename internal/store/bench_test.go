package store

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/metrics"
	"vada/internal/session"
)

// benchSession builds an established large-KB session — bootstrap and data
// context done — plus the stage record a steady-state feedback iteration
// appends, so both benchmarks measure the same workload: "one more run
// completed on a session with an accumulated knowledge base".
func benchSession(b *testing.B, n int) (*session.Session, *Record) {
	b.Helper()
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = 11
	sc := datagen.Generate(cfg)
	var captured *Record
	sess := session.New("bench", core.BuildScenarioWrangler(sc),
		session.WithScenario(sc, 11),
		session.WithStageCommitHook(func(_ context.Context, s *session.Session, ev session.Event) func() {
			captured = &Record{At: ev.At, Stage: &StageRecord{Event: ev, Delta: s.Wrangler().CutChangeLog()}}
			return nil
		}))
	sess.Wrangler().StartChangeLog()
	if _, err := sess.Bootstrap(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		b.Fatal(err)
	}
	if _, err := sess.AddFeedback(ctx, nil, 40); err != nil {
		b.Fatal(err)
	}
	if captured == nil || captured.Stage.Event.Stage != session.StageFeedback {
		b.Fatal("no feedback stage record captured")
	}
	return sess, captured
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
// same workload: one framed, fsynced stage record carrying only the run's
// mutation delta — o(snapshot-size) bytes per run on a large-KB session.
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
		// Compact periodically so the file does not grow unboundedly over
		// the run — exactly what the server's thresholds do.
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

// BenchmarkStageRecordEncode is the journal encoding of one stage's record,
// framed, at n=60: a bootstrap (sources and results put whole) and a
// feedback round (facts and row diffs). MB/s is of the frame's bytes.
func BenchmarkStageRecordEncode(b *testing.B) {
	recs := stageRecords(b, 60)
	for _, bc := range []struct {
		name string
		rec  Record
	}{{"bootstrap", recs[0]}, {"feedback", recs[2]}} {
		b.Run(bc.name, func(b *testing.B) {
			// The buffer is reused, as appendCommit reuses its pooled ones.
			var frame []byte
			encode := func() []byte {
				var err error
				if frame, err = appendFrame(frame[:0], kindStage, func(p []byte) ([]byte, error) { return appendRecord(p, &bc.rec) }); err != nil {
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

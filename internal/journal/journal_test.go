package journal

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/persist"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
)

// -update regenerates the golden fixture under testdata. Run it ONLY when
// deliberately changing the journal format, alongside a FormatV1 bump.
var update = flag.Bool("update", false, "rewrite golden journal fixtures")

const goldenPath = "testdata/v1_session.vjournal"

// goldenRecords builds the fixed record sequence pinned by the golden
// fixture. Everything is deterministic: fixed times, fixed deltas, fixed
// run snapshots.
func goldenRecords() []Record {
	at := time.Date(2026, 7, 2, 9, 30, 0, 0, time.UTC)
	rel := relation.New(relation.NewSchema("result", "street", "postcode", "price:float"))
	rel.MustAppend("1 High St", "M1 1AA", 250000.0)
	started := at.Add(-2 * time.Second)
	return []Record{
		{Seq: 1, At: at, Stage: &StageRecord{
			Event: session.Event{Seq: 1, Type: session.EventStage, Stage: session.StageBootstrap,
				Steps: 9, Duration: 1200 * time.Millisecond, At: at},
			Delta: &kb.Delta{From: 3, To: 6, Ops: []kb.DeltaOp{
				{Kind: kb.DeltaAssert, Name: "md_selected", Tuple: relation.NewTuple("m_rightmove", 1)},
				{Kind: kb.DeltaRetract, Name: "md_selected", Tuple: relation.NewTuple("m_stale", 2)},
				{Kind: kb.DeltaPutRelation, Name: "result", Relation: rel},
			}},
			ExecHashes: map[string]uint64{"m_rightmove": 0xfeedc0de},
			FusedHash:  0xdecafbad,
		}},
		{Seq: 2, At: at.Add(time.Minute), Stage: &StageRecord{
			Event: session.Event{Seq: 2, Type: session.EventStage, Stage: session.StageFeedback,
				Steps: 3, Duration: 300 * time.Millisecond, At: at.Add(time.Minute)},
			Delta: &kb.Delta{From: 6, To: 7, Ops: []kb.DeltaOp{
				{Kind: kb.DeltaAssert, Name: "fb_item",
					Tuple: relation.NewTuple("1 High St", "M1 1AA", "price", false)},
			}},
			Feedback: []feedback.Item{{Street: "1 High St", Postcode: "M1 1AA", Attr: "price",
				Correct: false, Observed: relation.Float(250000), HasObserved: true}},
			FusedHash: 0xdecafbad,
		}},
		{Seq: 3, At: at.Add(2 * time.Minute), Run: &runs.Run{
			ID: "r0002-00c0ffee", SessionID: "s0001-00c0ffee",
			Stage: session.StageFeedback, State: runs.StateSucceeded,
			CreatedAt: started, StartedAt: &started,
		}},
	}
}

// encodeJournal writes a fresh journal holding the given records and
// returns its bytes.
func encodeJournal(t testing.TB, recs []Record) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "enc.vjournal")
	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(got))
	}
	for i := range recs {
		rec := recs[i]
		if err := w.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenV1 is the forward-compatibility gate of the journal's on-disk
// format: current code must keep replaying the checked-in v1 bytes, and
// re-encoding what it replayed must reproduce them byte-for-byte. If this
// fails after a format change, bump FormatV1 and regenerate with -update —
// never silently strand old journals.
func TestGoldenV1(t *testing.T) {
	want := goldenRecords()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, encodeJournal(t, want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}
	res, err := Replay(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("current code no longer replays format v1: %v", err)
	}
	if res.Damaged || res.Valid != int64(len(fixture)) {
		t.Fatalf("fixture replay: damaged=%v valid=%d size=%d", res.Damaged, res.Valid, len(fixture))
	}
	if !reflect.DeepEqual(res.Records, want) {
		t.Fatalf("records drifted:\n got %+v\nwant %+v", res.Records, want)
	}
	if reenc := encodeJournal(t, res.Records); !bytes.Equal(reenc, fixture) {
		t.Fatalf("re-encoded journal differs from v1 fixture (%d vs %d bytes) — format changed; bump FormatV1",
			len(reenc), len(fixture))
	}
}

// TestOpenRecovery covers the crash-mid-append path: a journal with a torn
// tail opens cleanly, replays its valid prefix, truncates the damage, and
// appends continue from the right sequence number.
func TestOpenRecovery(t *testing.T) {
	recs := goldenRecords()
	path := filepath.Join(t.TempDir(), "s.vjournal")
	if err := os.WriteFile(path, encodeJournal(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	// Simulate kill -9 mid-append: half a record's frame at the tail.
	torn := append([]byte{kindStage, 0, 0, 0, 200}, []byte(`{"seq":4`)...)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("recovered records drifted:\n got %+v\nwant %+v", got, recs)
	}
	// The damaged tail is gone from disk.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if records, bytes := w.Stats(); records != 3 || bytes != info.Size()-HeaderLen {
		t.Fatalf("writer stats after recovery: %d records, %d bytes (file %d)", records, bytes, info.Size())
	}
	// Appends continue the sequence.
	next := Record{At: time.Now().UTC(), Run: &runs.Run{ID: "r9", SessionID: "s", State: runs.StateFailed}}
	if err := w.Append(&next); err != nil {
		t.Fatal(err)
	}
	if next.Seq != 4 {
		t.Fatalf("post-recovery seq = %d, want 4", next.Seq)
	}
	w.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bytes.NewReader(data))
	if err != nil || res.Damaged || len(res.Records) != 4 {
		t.Fatalf("replay after recovery+append: %v damaged=%v n=%d", err, res.Damaged, len(res.Records))
	}
}

// TestOpenRefusesForeignFiles pins that Open never truncates a file it
// cannot prove is a journal.
func TestOpenRefusesForeignFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.vjournal")
	content := []byte("definitely not a journal file")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign file: %v, want ErrBadMagic", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatal("Open modified a file it refused")
	}
}

// TestCorruptByteRegions corrupts every structural region of the journal —
// magic, version, a record's kind, length, payload and CRC — and asserts
// recovery falls back to the last valid prefix (or a typed header error).
func TestCorruptByteRegions(t *testing.T) {
	recs := goldenRecords()
	valid := encodeJournal(t, recs)

	// Locate record boundaries by replaying every prefix: replaying
	// valid[:k] reports Valid == k exactly at frame boundaries.
	offsets := []int64{HeaderLen}
	for cut := HeaderLen + 1; cut <= int64(len(valid)); cut++ {
		sub, err := Replay(bytes.NewReader(valid[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		if len(sub.Records) == len(offsets) && sub.Valid == cut {
			offsets = append(offsets, cut)
		}
	}
	if len(offsets) != len(recs)+1 {
		t.Fatalf("found %d record boundaries, want %d", len(offsets)-1, len(recs))
	}
	rec2 := offsets[1] // start of the second record's frame

	cases := []struct {
		name       string
		mutate     func(b []byte)
		wantErr    error // non-nil: Replay must fail with this sentinel
		wantPrefix int   // valid records expected when wantErr is nil
	}{
		{"magic", func(b []byte) { b[0] = 'X' }, ErrBadMagic, 0},
		{"version", func(b []byte) { b[8] = 99 }, ErrBadVersion, 0},
		{"record kind", func(b []byte) { b[rec2] = 0x7f }, nil, 1},
		{"record length", func(b []byte) { binary.BigEndian.PutUint32(b[rec2+1:], 0xfffffff0) }, nil, 1},
		{"record payload", func(b []byte) { b[rec2+5] ^= 0xff }, nil, 1},
		{"record crc", func(b []byte) { b[offsets[2]-1] ^= 0xff }, nil, 1},
		{"torn tail", func(b []byte) {}, nil, 2}, // handled by slicing below
	}
	for _, tc := range cases {
		data := append([]byte(nil), valid...)
		if tc.name == "torn tail" {
			data = data[:offsets[2]+3] // mid-third-record
		}
		tc.mutate(data)
		res, err := Replay(bytes.NewReader(data))
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if !res.Damaged {
			t.Errorf("%s: damage not reported", tc.name)
		}
		if len(res.Records) != tc.wantPrefix {
			t.Errorf("%s: prefix = %d records, want %d", tc.name, len(res.Records), tc.wantPrefix)
		}
		if !reflect.DeepEqual(res.Records, recs[:tc.wantPrefix]) {
			t.Errorf("%s: prefix content drifted", tc.name)
		}
		if res.Valid != offsets[tc.wantPrefix] {
			t.Errorf("%s: valid offset = %d, want %d", tc.name, res.Valid, offsets[tc.wantPrefix])
		}
	}

	// A sequence break (valid frames, wrong order) also stops the replay.
	swapped := append([]byte(nil), valid[:HeaderLen]...)
	swapped = append(swapped, valid[offsets[1]:offsets[2]]...) // record 2 first
	swapped = append(swapped, valid[offsets[0]:offsets[1]]...)
	res, err := Replay(bytes.NewReader(swapped))
	if err != nil || len(res.Records) != 0 || !res.Damaged {
		t.Fatalf("sequence break: err=%v n=%d damaged=%v", err, len(res.Records), res.Damaged)
	}
}

// TestReset pins compaction's journal half: after Reset the file is
// header-only, stats are zero, and sequence numbering restarts.
func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.vjournal")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := w.Append(&Record{At: time.Now(), Run: &runs.Run{ID: fmt.Sprintf("r%d", i), State: runs.StateSucceeded}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if records, bytes := w.Stats(); records != 0 || bytes != 0 {
		t.Fatalf("stats after reset: %d records, %d bytes", records, bytes)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != HeaderLen {
		t.Fatalf("file size after reset = %d, want %d", info.Size(), HeaderLen)
	}
	rec := Record{At: time.Now(), Run: &runs.Run{ID: "r9", State: runs.StateSucceeded}}
	if err := w.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 {
		t.Fatalf("post-reset seq = %d, want 1", rec.Seq)
	}
}

// stageRec builds a minimal deterministic stage record (At fixed so file
// bytes are reproducible across writers).
func stageRec(seq int) *Record {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second)
	return &Record{At: at, Stage: &StageRecord{
		Event: session.Event{Seq: seq, Type: session.EventStage,
			Stage: session.StageBootstrap, Steps: seq, At: at},
	}}
}

// TestAppendCommit pins the two-phase append: what a wait costs, and what it
// answers after each thing that can happen to the writer between the write
// and the wait.
func TestAppendCommit(t *testing.T) {
	const k = 5
	fsyncName := metrics.Name("persist_fsync_total", "path", "journal")
	// appendK writes records from..from+k-1 without waiting on any.
	appendK := func(t *testing.T, w *Writer, from int) []func() error {
		t.Helper()
		waits := make([]func() error, k)
		for i := range waits {
			wait, err := w.AppendCommit(stageRec(from + i))
			if err != nil {
				t.Fatal(err)
			}
			waits[i] = wait
		}
		return waits
	}
	reopen := func(t *testing.T, path string) []Record {
		t.Helper()
		w, recs, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		return recs
	}
	cases := []struct {
		name string
		run  func(t *testing.T, w *Writer, reg *metrics.Registry)
	}{
		{"k appends then k waits cost one fsync and the bytes of k Appends", func(t *testing.T, w *Writer, reg *metrics.Registry) {
			waits := appendK(t, w, 1)
			if got := reg.Counter(fsyncName).Value(); got != 0 {
				t.Fatalf("AppendCommit fsynced %d times before any wait", got)
			}
			for i, wait := range waits {
				if err := wait(); err != nil {
					t.Fatalf("wait %d: %v", i, err)
				}
			}
			if err := waits[0](); err != nil { // idempotent
				t.Fatal(err)
			}
			if got := reg.Counter(fsyncName).Value(); got != 1 {
				t.Fatalf("%d waits cost %d fsyncs, want 1", k, got)
			}
			_, size := w.Stats()
			if got := reg.Counter("persist_journal_bytes_total").Value(); got != size {
				t.Fatalf("persist_journal_bytes_total = %d, want the %d durable record bytes", got, size)
			}
			direct, _, err := Open(filepath.Join(t.TempDir(), "direct.vjournal"))
			if err != nil {
				t.Fatal(err)
			}
			defer direct.Close()
			for i := 1; i <= k; i++ {
				if err := direct.Append(stageRec(i)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := os.ReadFile(w.Path())
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(direct.Path())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("deferred-wait journal differs from the Append journal (%d vs %d bytes)", len(got), len(want))
			}
		}},
		{"a wait after Reset returns nil: the snapshot holds the record", func(t *testing.T, w *Writer, reg *metrics.Registry) {
			waits := appendK(t, w, 1)
			if err := w.Reset(); err != nil {
				t.Fatal(err)
			}
			for i, wait := range waits {
				if err := wait(); err != nil {
					t.Fatalf("wait %d after reset: %v", i, err)
				}
			}
			if got := reg.Counter(fsyncName).Value(); got != 0 {
				t.Fatalf("waits for truncated records fsynced %d times", got)
			}
			// The fresh journal's offsets restart: a new record is not
			// mistaken for one the old epoch already made durable.
			wait, err := w.AppendCommit(stageRec(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := wait(); err != nil {
				t.Fatal(err)
			}
			if got := reg.Counter(fsyncName).Value(); got != 1 {
				t.Fatalf("post-reset wait cost %d fsyncs, want 1", got)
			}
		}},
		{"a wait after Close reports the fsync Close performed", func(t *testing.T, w *Writer, reg *metrics.Registry) {
			waits := appendK(t, w, 1)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for i, wait := range waits {
				if err := wait(); err != nil {
					t.Fatalf("wait %d after close: %v", i, err)
				}
			}
			if got := reg.Counter(fsyncName).Value(); got != 1 {
				t.Fatalf("Close cost %d fsyncs, want 1", got)
			}
			if _, err := w.AppendCommit(stageRec(k + 1)); err == nil {
				t.Fatal("append on a closed writer succeeded")
			}
			if recs := reopen(t, w.Path()); len(recs) != k {
				t.Fatalf("replayed %d records after close, want %d", len(recs), k)
			}
		}},
		{"a failed sync fails every wait past the durable offset, and only those", func(t *testing.T, w *Writer, reg *metrics.Registry) {
			durable := appendK(t, w, 1)
			if err := durable[k-1](); err != nil {
				t.Fatal(err)
			}
			lost := appendK(t, w, k+1)
			// Force the failure without a seam: with its descriptor closed
			// underneath it the writer can neither fsync nor truncate.
			w.f.Close()
			for i, wait := range lost {
				if err := wait(); err == nil {
					t.Fatalf("wait %d acknowledged a record whose fsync failed", i)
				}
			}
			for i, wait := range durable {
				if err := wait(); err != nil {
					t.Fatalf("durable wait %d turned into %v", i, err)
				}
			}
			if got := reg.Counter(fsyncName).Value(); got != 1 {
				t.Fatalf("fsyncs counted = %d, want only the successful one", got)
			}
			if records, _ := w.Stats(); records != k {
				t.Fatalf("writer reports %d records after the failure, want the %d durable ones", records, k)
			}
			if _, err := w.AppendCommit(stageRec(2*k + 1)); err == nil {
				t.Fatal("poisoned writer accepted an append")
			}
			// Nothing acknowledged is missing and the file is a clean prefix
			// of what was written. (Had the truncate been possible, the
			// unacknowledged tail would be gone too.)
			recs := reopen(t, w.Path())
			if len(recs) < k || len(recs) > 2*k {
				t.Fatalf("replayed %d records, want the %d durable ones (and at most the %d written)", len(recs), k, 2*k)
			}
			for i, rec := range recs {
				if want := stageRec(i + 1); rec.Seq != uint64(i+1) || !reflect.DeepEqual(rec.Stage, want.Stage) {
					t.Fatalf("replayed record %d drifted: %+v", i, rec)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, _, err := Open(filepath.Join(t.TempDir(), "s.vjournal"))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			reg := metrics.NewRegistry()
			w.SetMetrics(reg)
			tc.run(t, w, reg)
		})
	}
}

// TestComposeGuards pins the convergence rules: already-folded stage
// records are skipped, sequence gaps stop the replay, run records dedupe
// by ID.
func TestComposeGuards(t *testing.T) {
	mkEvent := func(seq int) session.Event {
		return session.Event{Seq: seq, Type: session.EventStage, Stage: session.StageBootstrap,
			At: time.Date(2026, 7, 2, 9, 0, seq, 0, time.UTC)}
	}
	snap := &persist.SessionSnapshot{
		Meta:   persist.Meta{ID: "s1", LastActive: time.Date(2026, 7, 2, 8, 0, 0, 0, time.UTC)},
		KB:     kb.New(),
		Events: []session.Event{mkEvent(1)},
		Runs:   []runs.Run{{ID: "r1", State: runs.StateSucceeded}},
	}
	recs := []Record{
		{Seq: 1, Stage: &StageRecord{Event: mkEvent(1), Delta: &kb.Delta{Ops: []kb.DeltaOp{
			{Kind: kb.DeltaAssert, Name: "dup", Tuple: relation.NewTuple(1)}}}}}, // already folded: skipped, delta not applied
		{Seq: 2, Run: &runs.Run{ID: "r1", State: runs.StateSucceeded}}, // dup run: skipped
		{Seq: 3, Stage: &StageRecord{Event: mkEvent(2), Delta: &kb.Delta{Ops: []kb.DeltaOp{
			{Kind: kb.DeltaAssert, Name: "p", Tuple: relation.NewTuple(2)}}}}}, // applied
		{Seq: 4, Run: &runs.Run{ID: "r2", State: runs.StateFailed}},  // applied
		{Seq: 5, Run: &runs.Run{ID: "r3", State: runs.StateRunning}}, // non-terminal: skipped
		{Seq: 6, Stage: &StageRecord{Event: mkEvent(9)}},             // gap: stops replay
		{Seq: 7, Run: &runs.Run{ID: "r4", State: runs.StateFailed}},  // after the gap: never reached
	}
	// A compaction snapshot taken mid-stage already captured the first of
	// the feedback items record 3's stage added: the record's FeedbackAt
	// index lets Compose append only the missed suffix.
	snap.Meta.Feedback = []feedback.Item{{Street: "pre", Correct: true}, {Street: "overlap", Correct: false}}
	recs[2].Stage.Feedback = []feedback.Item{{Street: "overlap", Correct: false}, {Street: "fresh", Correct: true}}
	recs[2].Stage.FeedbackAt = 1
	out := Compose(snap, recs)
	wantFB := []string{"pre", "overlap", "fresh"}
	if len(out.Meta.Feedback) != len(wantFB) {
		t.Fatalf("feedback = %+v, want streets %v", out.Meta.Feedback, wantFB)
	}
	for i, street := range wantFB {
		if out.Meta.Feedback[i].Street != street {
			t.Fatalf("feedback[%d] = %q, want %q", i, out.Meta.Feedback[i].Street, street)
		}
	}
	if len(out.Events) != 2 || out.Events[1].Seq != 2 {
		t.Fatalf("events = %+v", out.Events)
	}
	if out.KB.Count("dup") != 0 {
		t.Fatal("already-folded stage record's delta was re-applied")
	}
	if out.KB.Count("p") != 1 {
		t.Fatal("fresh stage record's delta not applied")
	}
	if len(out.Runs) != 2 || out.Runs[1].ID != "r2" {
		t.Fatalf("runs = %+v", out.Runs)
	}
	if !out.Meta.LastActive.Equal(mkEvent(2).At) {
		t.Fatalf("last active = %v", out.Meta.LastActive)
	}
}

// stageJournal wires a scenario session whose stage hook records into the
// given recorder, mirroring the server's wiring.
func stageJournal(t *testing.T, dir string, n int) (*session.Session, *Recorder, *Writer) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	cfg.Seed = 7
	sc := datagen.Generate(cfg)
	var rec *Recorder
	sess := session.New("j1", core.BuildScenarioWrangler(sc),
		session.WithScenario(sc, 7),
		session.WithStageCommitHook(func(ctx context.Context, s *session.Session, ev session.Event) func() {
			wait, err := rec.RecordStageCommit(ctx, ev)
			if err != nil {
				t.Errorf("journal stage: %v", err)
				return nil
			}
			return func() {
				if err := wait(); err != nil {
					t.Errorf("journal stage: %v", err)
				}
			}
		}))
	w, recovered, err := Open(filepath.Join(dir, "j1.vjournal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(recovered))
	}
	rec = NewRecorder(w, sess, nil)
	return sess, rec, w
}

// recordStage records one stage and waits for it to be durable.
func recordStage(ctx context.Context, rec *Recorder, ev session.Event) error {
	wait, err := rec.RecordStageCommit(ctx, ev)
	if err != nil {
		return err
	}
	return wait()
}

// TestRecorderConformance is the end-to-end contract: baseline snapshot +
// journal replay restores the same session state as a full capture — result
// rows, event history (Seq continues), feedback, terminal runs — while the
// journal stays a fraction of the snapshot's size.
func TestRecorderConformance(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sess, rec, w := stageJournal(t, dir, 60)
	defer w.Close()

	// Baseline: the snapshot written when the session was created.
	var baseline bytes.Buffer
	if err := persist.ExportSession(&baseline, sess, nil); err != nil {
		t.Fatal(err)
	}

	// Wrangle: every stage appends a record through the hook. Track what
	// snapshot-per-run durability would have cost — one full envelope after
	// every stage — and what the feedback iteration's own delta was.
	snapSize := func() int64 {
		var b bytes.Buffer
		if err := persist.ExportSession(&b, sess, nil); err != nil {
			t.Fatal(err)
		}
		return int64(b.Len())
	}
	var snapshotPerRun, feedbackDelta, feedbackSnap int64
	for _, stage := range []struct {
		name string
		run  func() error
	}{
		{"bootstrap", func() error { _, err := sess.Bootstrap(ctx); return err }},
		{"data-context", func() error { _, err := sess.AddDataContext(ctx, nil); return err }},
		{"feedback", func() error { _, err := sess.AddFeedback(ctx, nil, 30); return err }},
		{"user-context", func() error { _, err := sess.SetUserContext(ctx, core.CrimeAnalysisUserContext()); return err }},
	} {
		_, before := rec.Stats()
		if err := stage.run(); err != nil {
			t.Fatalf("%s: %v", stage.name, err)
		}
		_, after := rec.Stats()
		size := snapSize()
		snapshotPerRun += size
		if stage.name == "feedback" {
			feedbackDelta, feedbackSnap = after-before, size
		}
	}
	// Terminal runs are journaled off the engine's terminal list.
	terminal := []runs.Run{
		{ID: "r1", SessionID: sess.ID(), Stage: session.StageBootstrap, State: runs.StateSucceeded},
		{ID: "r2", SessionID: sess.ID(), Stage: session.StageFeedback, State: runs.StateCancelled},
	}
	if err := rec.RecordRuns(ctx, terminal); err != nil {
		t.Fatal(err)
	}
	if err := rec.RecordRuns(ctx, terminal); err != nil { // idempotent
		t.Fatal(err)
	}

	records, journalBytes := rec.Stats()
	if records != 6 {
		t.Fatalf("journal records = %d, want 6 (4 stages + 2 runs)", records)
	}

	// The O(delta) claim, concretely: the whole 4-stage journal costs less
	// than snapshot-per-run would have (a full envelope after every stage),
	// and the steady-state pay-as-you-go iteration — a feedback run on an
	// established KB — writes a small fraction of the snapshot it replaces.
	if journalBytes >= snapshotPerRun {
		t.Fatalf("journal (%d bytes) not cheaper than snapshot-per-run (%d bytes)", journalBytes, snapshotPerRun)
	}
	if feedbackDelta*2 >= feedbackSnap {
		t.Fatalf("feedback delta (%d bytes) not o(snapshot) (%d bytes)", feedbackDelta, feedbackSnap)
	}

	// Recovery: baseline snapshot + journal replay.
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bytes.NewReader(data))
	if err != nil || res.Damaged {
		t.Fatalf("replay: %v damaged=%v", err, res.Damaged)
	}
	snap, err := persist.ReadSessionSnapshot(bytes.NewReader(baseline.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := persist.RestoreSession(Compose(snap, res.Records))
	if err != nil {
		t.Fatal(err)
	}

	wantEvents, gotEvents := sess.Events(), restored.Events()
	if len(gotEvents) != len(wantEvents) || len(gotEvents) != 4 {
		t.Fatalf("events: got %d, want %d", len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i].Stage != wantEvents[i].Stage || gotEvents[i].Seq != wantEvents[i].Seq ||
			!gotEvents[i].At.Equal(wantEvents[i].At) {
			t.Fatalf("event %d drifted: %+v vs %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	wantRes, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if gotRes.Cardinality() != wantRes.Cardinality() {
		t.Fatalf("result rows: %d vs %d", gotRes.Cardinality(), wantRes.Cardinality())
	}
	for i := range wantRes.Tuples {
		if gotRes.Tuples[i].Key() != wantRes.Tuples[i].Key() {
			t.Fatalf("result row %d drifted", i)
		}
	}
	if got, want := restored.Wrangler().FeedbackItems(), sess.Wrangler().FeedbackItems(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("feedback items:\n got %v\nwant %v", got, want)
	}
	if len(snap.Runs) != 2 || snap.Runs[0].ID != "r1" || snap.Runs[1].ID != "r2" {
		t.Fatalf("composed runs = %+v", snap.Runs)
	}

	// The restored session keeps wrangling and Seq continues.
	ev, err := restored.SetUserContext(ctx, core.SizeAnalysisUserContext())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 5 {
		t.Fatalf("post-restore Seq = %d, want 5", ev.Seq)
	}
}

// TestRecorderCompact proves compaction folds the journal into the
// snapshot-writer callback and that post-compaction records compose over
// the NEW snapshot, not the old one.
func TestRecorderCompact(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sess, rec, w := stageJournal(t, dir, 50)
	defer w.Close()

	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if !rec.ShouldCompact(1, 0) {
		t.Fatal("record threshold not reached")
	}
	if rec.ShouldCompact(0, 0) {
		t.Fatal("disabled thresholds reported compactable")
	}
	var compacted bytes.Buffer
	if err := rec.Compact(func() error {
		return persist.ExportSession(&compacted, sess, nil)
	}); err != nil {
		t.Fatal(err)
	}
	if records, bytes := rec.Stats(); records != 0 || bytes != 0 {
		t.Fatalf("journal not reset after compaction: %d records, %d bytes", records, bytes)
	}

	// One more stage lands in the fresh journal; snapshot+journal restores
	// the full two-stage state.
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bytes.NewReader(data))
	if err != nil || res.Damaged || len(res.Records) != 1 {
		t.Fatalf("post-compaction replay: %v damaged=%v n=%d", err, res.Damaged, len(res.Records))
	}
	snap, err := persist.ReadSessionSnapshot(bytes.NewReader(compacted.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := persist.RestoreSession(Compose(snap, res.Records))
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Events(); len(got) != 2 || got[1].Stage != session.StageDataContext {
		t.Fatalf("restored events = %+v", got)
	}
	wantRes, _ := sess.Result()
	gotRes, err := restored.Result()
	if err != nil || gotRes.Cardinality() != wantRes.Cardinality() {
		t.Fatalf("restored result: %v, %d rows vs %d", err, gotRes.Cardinality(), wantRes.Cardinality())
	}

	// A failing snapshot writer leaves the journal untouched.
	before, _ := rec.Stats()
	if err := rec.Compact(func() error { return errors.New("disk full") }); err == nil {
		t.Fatal("compaction swallowed the snapshot error")
	}
	after, _ := rec.Stats()
	if before != after {
		t.Fatalf("failed compaction changed the journal: %d -> %d records", before, after)
	}
}

// TestRecorderCompactMidStage pins compaction racing a running stage: the
// snapshot holds part of the stage's relation writes, the stage's record —
// cut from before those writes — lands in the fresh journal, and the two
// still compose into the live state, row for row. The feedback items are rows
// of a relation like any other: the one added before the snapshot was taken
// and the one added after it are each recovered exactly once.
func TestRecorderCompactMidStage(t *testing.T) {
	ctx := context.Background()
	sess, rec, w := stageJournal(t, t.TempDir(), 40)
	defer w.Close()
	rel := func(n int) *relation.Relation {
		r := relation.New(relation.NewSchema("scratch", "street", "price:float"))
		for i := 0; i < n; i++ {
			r.MustAppend(fmt.Sprintf("%d High St", i), float64(100*i))
		}
		return r
	}
	item := func(street string) feedback.Item {
		return feedback.Item{Street: street, Postcode: "M1 1AA", Attr: "price", Observed: relation.Float(100), HasObserved: true}
	}
	if _, err := sess.Step(ctx, "seed", func(w *core.Wrangler) error {
		w.KB.PutRelation("scratch", rel(4))
		w.AddFeedback(item("seeded"), item("seeded again"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var compacted bytes.Buffer
	if _, err := sess.Step(ctx, "grow", func(w *core.Wrangler) error {
		w.KB.PutRelation("scratch", rel(5))
		w.AddFeedback(item("before the snapshot"))
		// The persister's threshold compaction lands here, mid-stage.
		if err := rec.Compact(func() error { return persist.ExportSession(&compacted, sess, nil) }); err != nil {
			return err
		}
		w.KB.PutRelation("scratch", rel(6))
		w.AddFeedback(item("after the snapshot"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bytes.NewReader(data))
	if err != nil || res.Damaged || len(res.Records) != 1 {
		t.Fatalf("post-compaction replay: %v damaged=%v n=%d", err, res.Damaged, len(res.Records))
	}
	snap, err := persist.ReadSessionSnapshot(bytes.NewReader(compacted.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Events) != 1 {
		t.Fatalf("mid-stage snapshot holds %d events, want the finished stage only", len(snap.Events))
	}
	restored, err := persist.RestoreSession(Compose(snap, res.Records))
	if err != nil {
		t.Fatal(err)
	}
	got, want := restored.Wrangler().KB.Relation("scratch"), sess.Wrangler().KB.Relation("scratch")
	if got == nil || !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Fatalf("scratch after mid-stage compaction:\n got %v\nwant %v", got, want)
	}
	items := restored.Wrangler().FeedbackItems()
	if want := sess.Wrangler().FeedbackItems(); len(want) != 4 || !reflect.DeepEqual(items, want) {
		t.Fatalf("feedback items after mid-stage compaction:\n got %v\nwant %v", items, want)
	}
	for _, street := range []string{"before the snapshot", "after the snapshot"} {
		n := 0
		for _, it := range items {
			if it.Street == street {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("the item added %s was recovered %d times", street, n)
		}
	}
	if len(restored.Events()) != 2 {
		t.Fatalf("restored events = %d, want 2", len(restored.Events()))
	}
}

// TestRecorderCurrent pins when the snapshot under the journal may be taken
// as the session's whole durable state: only while nothing was recorded
// since it was written — a failed record included — and every terminal run
// is already in it.
func TestRecorderCurrent(t *testing.T) {
	ctx := context.Background()
	_, rec, w := stageJournal(t, t.TempDir(), 40)
	defer w.Close()
	done := runs.Run{ID: "r1", SessionID: "j1", State: runs.StateSucceeded}

	if !rec.Current(nil) {
		t.Fatal("fresh recorder over a fresh snapshot is not current")
	}
	if rec.Current([]runs.Run{done}) {
		t.Fatal("current with an unjournaled terminal run")
	}
	if err := rec.RecordRuns(ctx, []runs.Run{done}); err != nil {
		t.Fatal(err)
	}
	if rec.Current([]runs.Run{done}) {
		t.Fatal("current with a record in the journal")
	}
	if err := rec.Compact(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !rec.Current([]runs.Run{done}) {
		t.Fatal("not current after compaction folded the run in")
	}
	// A record that fails to append leaves the journal empty but the
	// snapshot stale.
	w.Close()
	if _, err := rec.RecordStageCommit(ctx, session.Event{Seq: 1, Type: session.EventStage,
		Stage: session.StageBootstrap, At: time.Now()}); err == nil {
		t.Fatal("append to a closed journal succeeded")
	}
	if rec.Current([]runs.Run{done}) {
		t.Fatal("current after a lost record")
	}
}

// Path returns the journal's file path.
func (w *Writer) Path() string { return w.path }

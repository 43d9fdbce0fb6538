package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
)

// goldenRecords builds the fixed record sequence pinned by the golden
// fixture: an older binary's journal — two stage records and a run record.
// Everything is deterministic: fixed times, fixed deltas, fixed run
// snapshots.
func goldenRecords() []Record {
	at := time.Date(2026, 7, 2, 9, 30, 0, 0, time.UTC)
	rel := relation.New(relation.NewSchema("result", "street", "postcode", "price:float"))
	rel.MustAppend("1 High St", "M1 1AA", 250000.0)
	started := at.Add(-2 * time.Second)
	return []Record{
		{Seq: 1, At: at, Stage: &StageRecord{
			Event: session.Event{Seq: 1, Type: session.EventStage, Stage: session.StageBootstrap,
				Steps: 9, Duration: 1200 * time.Millisecond, At: at},
			Delta: &Delta{From: 3, To: 6, Ops: []DeltaOp{
				{Kind: DeltaAssert, Name: "md_selected", Tuple: relation.NewTuple("m_rightmove", 1)},
				{Kind: DeltaRetract, Name: "md_selected", Tuple: relation.NewTuple("m_stale", 2)},
				{Kind: DeltaPutRelation, Name: "result", Relation: rel},
			}},
			legacyStage: legacyStage{
				ExecHashes: map[string]uint64{"m_rightmove": 0xfeedc0de},
				FusedHash:  0xdecafbad,
			},
		}},
		{Seq: 2, At: at.Add(time.Minute), Stage: &StageRecord{
			Event: session.Event{Seq: 2, Type: session.EventStage, Stage: session.StageFeedback,
				Steps: 3, Duration: 300 * time.Millisecond, At: at.Add(time.Minute)},
			Delta: &Delta{From: 6, To: 7, Ops: []DeltaOp{
				{Kind: DeltaAssert, Name: "fb_item",
					Tuple: relation.NewTuple("1 High St", "M1 1AA", "price", false)},
			}},
			legacyStage: legacyStage{
				Feedback: []feedback.Item{{Street: "1 High St", Postcode: "M1 1AA", Attr: "price",
					Correct: false, Observed: relation.Float(250000), HasObserved: true}},
				FusedHash: 0xdecafbad,
			},
		}},
		{Seq: 3, At: at.Add(2 * time.Minute), Run: &runs.Run{
			ID: "r0002-00c0ffee", SessionID: "s0001-00c0ffee",
			Stage: session.StageFeedback, State: runs.StateSucceeded,
			CreatedAt: started, StartedAt: &started,
		}},
	}
}

// encodeJournal frames the given records, Seq as they carry it, as the
// journal file a binary that wrote them left — an older binary's kinds
// included — and returns its bytes.
func encodeJournal(t testing.TB, recs []Record) []byte {
	t.Helper()
	b := header(journalMagic)
	for i := range recs {
		rec := &recs[i]
		var err error
		if b, err = appendFrame(b, recordKind(rec), func(p []byte) ([]byte, error) {
			data, err := json.Marshal(rec)
			return append(p, data...), err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// runRec is a record of today's layout for the run with the given ID.
func runRec(id string, state runs.State) *Record {
	return &Record{At: time.Now().UTC(), Run: &runs.Run{ID: id, SessionID: "s", State: state}, Asked: &Asked{}}
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

	j, got, err := openJournal(path, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, recs) || !got.Damaged {
		t.Fatalf("recovered records drifted:\n got %+v\nwant %+v", got, recs)
	}
	// The damaged tail is gone from disk.
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if records, bytes := j.written.records, j.written.bytes; records != 3 || bytes != info.Size()-headerLen {
		t.Fatalf("journal length after recovery: %d records, %d bytes (file %d)", records, bytes, info.Size())
	}
	// Appends continue the sequence.
	next := runRec("r9", runs.StateSucceeded)
	if err := j.append(next); err != nil {
		t.Fatal(err)
	}
	if next.Seq != 4 {
		t.Fatalf("post-recovery seq = %d, want 4", next.Seq)
	}
	j.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bytes.NewReader(data))
	if err != nil || res.Damaged || len(res.Records) != 4 {
		t.Fatalf("replay after recovery+append: %v damaged=%v n=%d", err, res.Damaged, len(res.Records))
	}
}

// TestOpenRefusesForeignFiles pins that opening a journal never truncates a
// file it cannot prove is one.
func TestOpenRefusesForeignFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.vjournal")
	content := []byte("definitely not a journal file")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(path, metrics.NewRegistry()); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign file: %v, want ErrBadMagic", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, content) {
		t.Fatal("openJournal modified a file it refused")
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
	offsets := []int64{headerLen}
	for cut := headerLen + 1; cut <= int64(len(valid)); cut++ {
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
	swapped := append([]byte(nil), valid[:headerLen]...)
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
	j, _, err := openJournal(path, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	for i := 0; i < 3; i++ {
		if err := j.append(runRec(fmt.Sprintf("r%d", i), runs.StateSucceeded)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.reset(); err != nil {
		t.Fatal(err)
	}
	if j.written != (extent{}) {
		t.Fatalf("length after reset: %+v", j.written)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != headerLen {
		t.Fatalf("file size after reset = %d, want %d", info.Size(), headerLen)
	}
	rec := runRec("r9", runs.StateSucceeded)
	if err := j.append(rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 1 {
		t.Fatalf("post-reset seq = %d, want 1", rec.Seq)
	}
}

// stageRec builds a minimal deterministic record of a one-stage run (At
// fixed so file bytes are reproducible across writers).
func stageRec(seq int) *Record {
	at := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC).Add(time.Duration(seq) * time.Second)
	return &Record{At: at, Run: &runs.Run{ID: fmt.Sprintf("r%d", seq), SessionID: "s", State: runs.StateSucceeded},
		Asked: &Asked{
			Requests: []session.StageRequest{{Stage: session.StageBootstrap}},
			Events: []session.Event{{Seq: seq, Type: session.EventStage,
				Stage: session.StageBootstrap, Steps: seq, At: at}},
			Version: uint64(seq), Digest: uint64(seq) * 0x9e3779b97f4a7c15,
		}}
}

// TestJournalAppend pins the append and the sync that follows it, as
// CommitRun makes them: what they cost, and what a closed journal and a
// failed fsync leave behind.
func TestJournalAppend(t *testing.T) {
	const k = 5
	fsyncName := metrics.Name("persist_fsync_total", "path", "journal")
	// commit appends records from..from+k-1, each synced before the next.
	commit := func(t *testing.T, j *journal, from int) {
		t.Helper()
		for i := from; i < from+k; i++ {
			if err := j.append(stageRec(i)); err != nil {
				t.Fatal(err)
			}
			if err := j.sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func(t *testing.T, path string) []Record {
		t.Helper()
		j, res, err := openJournal(path, metrics.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		j.close()
		return res.Records
	}
	cases := []struct {
		name string
		run  func(t *testing.T, j *journal, path string, reg *metrics.Registry)
	}{
		{"each append costs one fsync and counts its bytes", func(t *testing.T, j *journal, path string, reg *metrics.Registry) {
			for i := 1; i <= k; i++ {
				if err := j.append(stageRec(i)); err != nil {
					t.Fatal(err)
				}
				if err := j.sync(); err != nil {
					t.Fatal(err)
				}
				if got := reg.Counter(fsyncName).Value(); got != int64(i) {
					t.Fatalf("%d appends cost %d fsyncs", i, got)
				}
			}
			if got := reg.Counter("persist_journal_bytes_total").Value(); got != j.written.bytes {
				t.Fatalf("persist_journal_bytes_total = %d, want the %d durable record bytes", got, j.written.bytes)
			}
			if recs := reopen(t, path); len(recs) != k || recs[k-1].Seq != k {
				t.Fatalf("replayed %d records, want %d in sequence", len(recs), k)
			}
		}},
		{"a closed journal refuses appends and keeps its records", func(t *testing.T, j *journal, path string, reg *metrics.Registry) {
			commit(t, j, 1)
			if err := j.close(); err != nil {
				t.Fatal(err)
			}
			if err := j.append(stageRec(k + 1)); err == nil {
				t.Fatal("append on a closed journal succeeded")
			}
			if recs := reopen(t, path); len(recs) != k {
				t.Fatalf("replayed %d records after close, want %d", len(recs), k)
			}
		}},
		{"a failed sync fails its append and poisons until a reset", func(t *testing.T, j *journal, path string, reg *metrics.Registry) {
			commit(t, j, 1)
			if err := j.append(stageRec(k + 1)); err != nil {
				t.Fatal(err)
			}
			// Force the failure without a seam: with its descriptor closed
			// underneath it the journal can neither fsync nor truncate.
			j.f.Close()
			if err := j.sync(); err == nil {
				t.Fatal("sync acknowledged a record whose fsync failed")
			}
			if got := reg.Counter(fsyncName).Value(); got != k {
				t.Fatalf("fsyncs counted = %d, want only the %d successful ones", got, k)
			}
			if records := j.written.records; records != k {
				t.Fatalf("journal reports %d records after the failure, want the %d durable ones", records, k)
			}
			if err := j.append(stageRec(k + 2)); err == nil {
				t.Fatal("poisoned journal accepted an append")
			}
			// Nothing acknowledged is missing and the file is a clean prefix
			// of what was written. (Had the truncate been possible, the
			// unacknowledged record would be gone too.)
			recs := reopen(t, path)
			if len(recs) < k || len(recs) > k+1 {
				t.Fatalf("replayed %d records, want the %d durable ones (and at most the %d written)", len(recs), k, k+1)
			}
			for i, rec := range recs {
				if want := stageRec(i + 1); rec.Seq != uint64(i+1) || !reflect.DeepEqual(rec.Asked, want.Asked) {
					t.Fatalf("replayed record %d drifted: %+v", i, rec)
				}
			}
			// With a descriptor again, a reset discards the damage.
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			j.f = f
			if err := j.reset(); err != nil {
				t.Fatal(err)
			}
			rec := stageRec(1)
			if err := j.append(rec); err != nil {
				t.Fatal(err)
			}
			if err := j.sync(); err != nil || rec.Seq != 1 {
				t.Fatalf("append after reset: seq %d, %v; want seq 1", rec.Seq, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.vjournal")
			reg := metrics.NewRegistry()
			j, _, err := openJournal(path, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer j.close()
			tc.run(t, j, path, reg)
		})
	}
}

// TestReplayGuards pins the convergence rules of folding a journal into its
// snapshot: records whose stages are already folded are skipped, sequence
// gaps stop the fold, run records dedupe by ID — for an older binary's
// records, folded in place, and for today's, handed back for replay.
func TestReplayGuards(t *testing.T) {
	mkEvent := func(seq int) session.Event {
		return session.Event{Seq: seq, Type: session.EventStage, Stage: session.StageBootstrap,
			At: time.Date(2026, 7, 2, 9, 0, seq, 0, time.UTC)}
	}
	snap := &SessionSnapshot{
		Meta:   Meta{ID: "s1", LastActive: time.Date(2026, 7, 2, 8, 0, 0, 0, time.UTC)},
		KB:     kb.New(),
		Events: []session.Event{mkEvent(1)},
		Runs:   []runs.Run{{ID: "r1", State: runs.StateSucceeded}},
	}
	recs := []Record{
		{Seq: 1, Stage: &StageRecord{Event: mkEvent(1), Delta: &Delta{Ops: []DeltaOp{
			{Kind: DeltaAssert, Name: "dup", Tuple: relation.NewTuple(1)}}}}}, // already folded: skipped, delta not applied
		{Seq: 2, Run: &runs.Run{ID: "r1", State: runs.StateSucceeded}}, // dup run: skipped
		{Seq: 3, Stage: &StageRecord{Event: mkEvent(2), Delta: &Delta{Ops: []DeltaOp{
			{Kind: DeltaAssert, Name: "p", Tuple: relation.NewTuple(2)}}}}}, // applied
		{Seq: 4, Run: &runs.Run{ID: "r2", State: runs.StateFailed}},  // applied
		{Seq: 5, Run: &runs.Run{ID: "r3", State: runs.StateRunning}}, // non-terminal: skipped
		{Seq: 6, Stage: &StageRecord{Event: mkEvent(9)}},             // gap: stops replay
		{Seq: 7, Run: &runs.Run{ID: "r4", State: runs.StateFailed}},  // after the gap: never reached
	}
	// An older binary's snapshot taken mid-stage already captured the first
	// of the feedback items record 3's stage added: the record's FeedbackAt
	// index lets recovery append only the missed suffix.
	snap.Meta.Feedback = []feedback.Item{{Street: "pre", Correct: true}, {Street: "overlap", Correct: false}}
	recs[2].Stage.Feedback = []feedback.Item{{Street: "overlap", Correct: false}, {Street: "fresh", Correct: true}}
	recs[2].Stage.FeedbackAt = 1
	if asked, legacy := fold(snap, recs); len(asked) != 0 || !legacy {
		t.Fatalf("an older binary's journal folded to %d records to replay, legacy %v", len(asked), legacy)
	}
	wantFB := []string{"pre", "overlap", "fresh"}
	if len(snap.Meta.Feedback) != len(wantFB) {
		t.Fatalf("feedback = %+v, want streets %v", snap.Meta.Feedback, wantFB)
	}
	for i, street := range wantFB {
		if snap.Meta.Feedback[i].Street != street {
			t.Fatalf("feedback[%d] = %q, want %q", i, snap.Meta.Feedback[i].Street, street)
		}
	}
	if len(snap.Events) != 2 || snap.Events[1].Seq != 2 {
		t.Fatalf("events = %+v", snap.Events)
	}
	if snap.KB.Count("dup") != 0 {
		t.Fatal("already-folded stage record's delta was re-applied")
	}
	if snap.KB.Count("p") != 1 {
		t.Fatal("fresh stage record's delta not applied")
	}
	if len(snap.Runs) != 2 || snap.Runs[1].ID != "r2" {
		t.Fatalf("runs = %+v", snap.Runs)
	}
	if !snap.Meta.LastActive.Equal(mkEvent(2).At) {
		t.Fatalf("last active = %v", snap.Meta.LastActive)
	}

	// Today's records: a run's stages replay over the restored session.
	asked := func(id string, seqs ...int) Record {
		a := &Asked{}
		for _, seq := range seqs {
			a.Requests = append(a.Requests, session.StageRequest{Stage: session.StageBootstrap})
			a.Events = append(a.Events, mkEvent(seq))
		}
		return Record{Run: &runs.Run{ID: id, State: runs.StateSucceeded}, Asked: a}
	}
	snap = &SessionSnapshot{Meta: Meta{ID: "s1"}, KB: kb.New(), Events: []session.Event{mkEvent(1), mkEvent(2)},
		Runs: []runs.Run{{ID: "r1", State: runs.StateSucceeded}}}
	recs = []Record{
		asked("r1", 1, 2), // already folded: skipped
		asked("r2"),       // no stages: its run joins, nothing replays
		asked("r2"),       // dup run: skipped
		asked("r3", 3, 4), // replayed
		asked("r4", 5),    // replayed
		asked("r5", 7),    // gap: stops the fold
		asked("r6"),       // after the gap: never reached
	}
	replay, legacy := fold(snap, recs)
	if legacy || len(replay) != 2 || replay[0] != recs[3].Asked || replay[1] != recs[4].Asked {
		t.Fatalf("fold handed back %d records to replay (legacy %v), want records 4 and 5", len(replay), legacy)
	}
	if len(snap.Events) != 2 {
		t.Fatalf("fold appended events to the snapshot: %+v", snap.Events)
	}
	var ids []string
	for _, r := range snap.Runs {
		ids = append(ids, r.ID)
	}
	if fmt.Sprint(ids) != "[r1 r2 r3 r4]" {
		t.Fatalf("runs = %v, want [r1 r2 r3 r4]", ids)
	}
}

package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vada/internal/advise"
	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/mcda"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
)

// legacyOptions is the wrangler configuration snapshots carried until a
// wrangler had none a binary varies: the defaults of the day, as written.
const legacyOptions = `{"MatchThreshold":0.6,"FusionThreshold":0.9,` +
	`"MineOptions":{"MaxLHS":2,"MinSupport":0.5,"MinConfidence":0.98,"MinConstantSupport":3,"MaxConstantCFDs":200},` +
	`"GenOptions":{"MatchThreshold":0.6,"MinCoverage":3,"JoinMinOverlap":0.25},` +
	`"RangeRuleSupport":3,"MaxSteps":500,"Network":null,"FusionBlockAttr":"postcode","FusionIdentityAttr":"street"}`

// -update regenerates the golden fixtures under testdata. Run it ONLY when
// deliberately changing the snapshot format, alongside a FormatV1 bump.
var update = flag.Bool("update", false, "rewrite golden snapshot fixtures")

const goldenPath = "testdata/v1_session.vsnap"

// goldenSnapshot builds the fixed snapshot pinned by the golden fixture.
// Everything is deterministic: fixed times, fixed KB insertion content,
// fixed configs.
func goldenSnapshot() *SessionSnapshot {
	created := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	active := created.Add(90 * time.Minute)

	k := kb.New()
	k.Assert("src_registered", relation.NewTuple("rightmove"))
	k.Assert("src_registered", relation.NewTuple("onthemarket"))
	k.Assert("md_selected", relation.NewTuple("m_rightmove", 1))
	k.Assert("fb_item", relation.NewTuple("1 High St", "M1 1AA", "bedrooms", false))
	res := relation.New(relation.NewSchema("result", "street", "postcode", "bedrooms:int", "price:float"))
	res.MustAppend("1 High St", "M1 1AA", 3, 250000.0)
	res.MustAppend("2 Low Rd", "M2 2BB", nil, 180000.0)
	k.PutRelation("result", res)

	cfg := datagen.DefaultConfig()
	cfg.NProperties = 24
	cfg.Seed = 5
	started := created.Add(time.Minute)
	finished := started.Add(2 * time.Second)
	score := datagen.Score{
		Rows: 2, AddressablePrecision: 1, Recall: 0.5, F1: 2. / 3,
		CellAccuracy: 0.75, ValueAccuracy: 0.9,
		Completeness: map[string]float64{"bedrooms": 0.5, "price": 1},
	}
	events := []session.Event{
		{Seq: 1, Type: session.EventStage, Stage: session.StageBootstrap,
			Steps: 7, Duration: 1500 * time.Millisecond, At: started},
		{Seq: 2, Type: session.EventStage, Stage: session.StageFeedback,
			Steps: 3, Duration: 400 * time.Millisecond, At: finished, Score: &score},
	}
	lastEv := events[1]
	return &SessionSnapshot{
		Meta: Meta{
			ID: "s0001-00c0ffee", Name: "golden",
			CreatedAt: created, LastActive: active,
			Seed: 7, Scenario: &cfg, Options: json.RawMessage(legacyOptions),
			Feedback: []feedback.Item{
				{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms",
					Correct: false, Observed: relation.Int(14), HasObserved: true},
				{Street: "2 Low Rd", Postcode: "M2 2BB", Correct: false},
			},
			ExecHashes: map[string]uint64{"m_rightmove": 0xfeedc0de, "m_onthemarket": 42},
			FusedHash:  0xdecafbad,
		},
		KB:     k,
		Events: events,
		Runs: []runs.Run{{
			ID: "r0001-feedbeef", SessionID: "s0001-00c0ffee",
			Stage: session.StageFeedback, Plan: []string{session.StageBootstrap, session.StageFeedback},
			StageIndex: 1, State: runs.StateSucceeded,
			CreatedAt: created, StartedAt: &started, FinishedAt: &finished,
			Event:  &lastEv,
			Events: events,
		}},
	}
}

// TestGoldenV1 is the forward-compatibility gate: current code must keep
// reading the checked-in v1 bytes, and re-encoding what it read must
// reproduce them byte-for-byte. If this test fails after a format change,
// bump FormatV1 and regenerate fixtures with -update — never silently
// strand old snapshots.
func TestGoldenV1(t *testing.T) {
	want := goldenSnapshot()
	if *update {
		var buf bytes.Buffer
		if err := WriteSessionSnapshot(&buf, want); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden fixture (regenerate with -update): %v", err)
	}

	snap, err := ReadSessionSnapshot(bytes.NewReader(fixture))
	if err != nil {
		t.Fatalf("current code no longer reads format v1: %v", err)
	}
	if !reflect.DeepEqual(snap.Meta, want.Meta) {
		t.Fatalf("meta drifted:\n got %+v\nwant %+v", snap.Meta, want.Meta)
	}
	if !reflect.DeepEqual(snap.Events, want.Events) {
		t.Fatalf("events drifted:\n got %+v\nwant %+v", snap.Events, want.Events)
	}
	if !reflect.DeepEqual(snap.Runs, want.Runs) {
		t.Fatalf("runs drifted:\n got %+v\nwant %+v", snap.Runs, want.Runs)
	}
	if got, want := kbBytes(t, snap.KB), kbBytes(t, want.KB); !bytes.Equal(got, want) {
		t.Fatalf("knowledge base drifted:\n got %s\nwant %s", got, want)
	}

	// Byte-for-byte: re-encoding the decoded snapshot reproduces the
	// fixture exactly.
	var reenc bytes.Buffer
	if err := WriteSessionSnapshot(&reenc, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc.Bytes(), fixture) {
		t.Fatalf("re-encoded snapshot differs from v1 fixture (%d vs %d bytes) — format changed; bump FormatV1",
			reenc.Len(), len(fixture))
	}
}

func kbBytes(t *testing.T, k *kb.KB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestUpgradeV1: a snapshot of an older binary carries the feedback items,
// the output hashes and a blank session's target schema in its meta, and its
// priorities as facts without a position. Restoring it moves all of that but
// the hashes into the knowledge base, where a current binary keeps it, and
// what the restored session captures carries nothing beside the knowledge base.
func TestUpgradeV1(t *testing.T) {
	snap := goldenSnapshot()
	items := snap.Meta.Feedback
	restored, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	w := restored.Wrangler()
	if got := feedback.Items(w.KB.Relation(feedback.RelItems)); len(items) != 2 || !reflect.DeepEqual(got, items) ||
		!got[0].HasObserved || !got[0].Observed.Equal(relation.Int(14)) {
		t.Fatalf("fb_items holds %v, the snapshot's meta carried %v", got, items)
	}
	for _, it := range items {
		if !w.KB.Has(core.PredFeedback, relation.NewTuple(it.Street, it.Postcode, it.Attr, it.Correct)) {
			t.Errorf("no fb_item fact for %v", it)
		}
	}
	// The output hashes are read and dropped: nothing remembers outputs.
	if n := w.KB.Count("md_fingerprint"); n != 0 {
		t.Errorf("%d md_fingerprint facts, want the legacy hashes dropped", n)
	}
	if m := snap.Meta; m.Feedback != nil || m.ExecHashes != nil || m.FusedHash != 0 || m.TargetName != "" || m.Target != nil {
		t.Errorf("the restore left legacy fields in the snapshot it consumed: %+v", m)
	}

	// A capture of the restored session is in today's layout, and restores to
	// the same state.
	var buf bytes.Buffer
	if err := ExportSession(&buf, restored, nil); err != nil {
		t.Fatal(err)
	}
	again, err := ReadSessionSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m := again.Meta; m.Feedback != nil || m.ExecHashes != nil || m.FusedHash != 0 || m.TargetName != "" || m.Target != nil {
		t.Errorf("a re-capture still writes legacy fields: %+v", m)
	}
	_, sections, err := readEnvelope(bytes.NewReader(buf.Bytes()))
	if err != nil || sections[0].kind != sectionMeta {
		t.Fatalf("reading the re-capture's meta section: %v", err)
	}
	for _, key := range []string{"options", "feedback", "exec_hashes", "fused_hash", "target"} {
		if bytes.Contains(sections[0].data, []byte(key)) {
			t.Errorf("re-captured meta mentions %q: %s", key, sections[0].data)
		}
	}
	second, err := RestoreSession(again)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Wrangler().FeedbackItems(); !reflect.DeepEqual(got, items) {
		t.Errorf("items after a second restore: %v", got)
	}

	// A blank session kept its target schema as specs; one unknown kind in a
	// hand-edited file degrades to string. Its priorities are five-column
	// facts, stated in storage order.
	k := kb.New()
	model := core.CrimeAnalysisUserContext()
	for _, c := range model.Comparisons() {
		k.Assert(core.PredPriority, relation.NewTuple(c.More.Metric, c.More.Target, c.Less.Metric, c.Less.Target, int(c.Strength)))
	}
	legacy := mcda.NewModel()
	for _, f := range k.Facts(core.PredPriority) {
		if err := legacy.AddComparison(mcda.Criterion{Metric: f[0].Str(), Target: f[1].Str()},
			mcda.Criterion{Metric: f[2].Str(), Target: f[3].Str()}, mcda.Strength(f[4].IntVal())); err != nil {
			t.Fatal(err)
		}
	}
	blank, err := RestoreSession(&SessionSnapshot{
		Meta: Meta{ID: "blank-1", TargetName: "places", Target: []string{"name", "level:int", "age:dragon"}},
		KB:   k,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTarget := relation.NewSchema("places", "name", "level:int", "age")
	if got, ok := blank.Wrangler().TargetSchema(); !ok || !got.Equal(wantTarget) {
		t.Errorf("blank session's target schema = %v (%v), want %v", got, ok, wantTarget)
	}
	wantWeights, _, err := legacy.Weights()
	if err != nil {
		t.Fatal(err)
	}
	gotWeights := blank.Wrangler().UserWeights()
	if len(gotWeights) != len(wantWeights) || len(wantWeights) == 0 {
		t.Fatalf("%d weights from five-column priorities, want %d", len(gotWeights), len(wantWeights))
	}
	for c, ww := range wantWeights {
		if math.Float64bits(gotWeights[c]) != math.Float64bits(ww) {
			t.Errorf("weight of %v = %v, want %v", c, gotWeights[c], ww)
		}
	}
	for _, f := range blank.Wrangler().KB.Facts(core.PredPriority) {
		if len(f) != 6 {
			t.Errorf("a five-column priority survived the upgrade: %v", f)
		}
	}
}

// TestRoundTripConformance is the end-to-end conformance suite: a real
// scenario session wrangles two stages, is captured, written, read back and
// restored — and the restored session serves identical result rows, events
// and run history.
func TestRoundTripConformance(t *testing.T) {
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 50
	cfg.Seed = 3
	sc := datagen.Generate(cfg)
	mgr := session.NewManager()
	sess, err := mgr.Create(core.BuildScenarioWrangler(sc), session.WithName("conf"), session.WithScenario(sc, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	eng := runs.New(runs.WithWorkers(1))
	defer eng.Close()
	run, err := eng.Submit(context.Background(), sess.ID(), session.StageFeedback, func(ctx context.Context) (session.Event, error) {
		return sess.AddFeedback(ctx, nil, 40)
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		r, err := eng.Get(run.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r.State.Terminal() {
			if r.State != runs.StateSucceeded {
				t.Fatalf("feedback run: %+v", r)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}

	var buf bytes.Buffer
	if err := ExportSession(&buf, sess, eng); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSessionSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	mgr2 := session.NewManager()
	eng2 := runs.New(runs.WithWorkers(1))
	defer eng2.Close()
	restored, err := RestoreInto(mgr2, eng2, snap)
	if err != nil {
		t.Fatal(err)
	}

	if restored.ID() != sess.ID() || restored.Name() != "conf" {
		t.Fatalf("identity lost: %s/%s", restored.ID(), restored.Name())
	}
	if !restored.CreatedAt().Equal(sess.CreatedAt()) {
		t.Fatalf("created drifted: %v vs %v", restored.CreatedAt(), sess.CreatedAt())
	}
	wantEvents, gotEvents := sess.Events(), restored.Events()
	if len(gotEvents) != len(wantEvents) || len(gotEvents) != 3 {
		t.Fatalf("events: got %d, want %d", len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i].Stage != wantEvents[i].Stage || gotEvents[i].Seq != wantEvents[i].Seq ||
			gotEvents[i].Steps != wantEvents[i].Steps || !gotEvents[i].At.Equal(wantEvents[i].At) {
			t.Fatalf("event %d drifted: %+v vs %+v", i, gotEvents[i], wantEvents[i])
		}
		if (gotEvents[i].Score == nil) != (wantEvents[i].Score == nil) {
			t.Fatalf("event %d score presence drifted", i)
		}
		if gotEvents[i].Score != nil && gotEvents[i].Score.F1 != wantEvents[i].Score.F1 {
			t.Fatalf("event %d score drifted", i)
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

	gotRun, err := eng2.Get(run.ID)
	if err != nil {
		t.Fatalf("run history lost: %v", err)
	}
	if gotRun.State != runs.StateSucceeded || gotRun.SessionID != sess.ID() {
		t.Fatalf("restored run = %+v", gotRun)
	}

	// The restored session keeps wrangling: another stage applies cleanly
	// and numbering continues.
	ev, err := restored.SetUserContext(ctx, core.CrimeAnalysisUserContext())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 4 {
		t.Fatalf("post-restore Seq = %d, want 4", ev.Seq)
	}

	// Restoring the same snapshot again collides on the live ID.
	if _, err := RestoreInto(mgr2, eng2, snap); !errors.Is(err, session.ErrExists) {
		t.Fatalf("duplicate restore: %v, want ErrExists", err)
	}
}

// TestAdviceSurvivesRestart: what the advisor suggests is a function of the
// knowledge base, so a session exported and restored is advised exactly as
// the live one. When Matches() came from cells a restart left empty, the
// restored session got a spurious "no source match" suggestion per target
// attribute.
func TestAdviceSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 50
	cfg.Seed = 3
	sc := datagen.Generate(cfg)
	sess := session.New("advised", core.BuildScenarioWrangler(sc), session.WithScenario(sc, 3))
	if _, err := sess.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddDataContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddFeedback(ctx, nil, 40); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ExportSession(&buf, sess, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSessionSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}

	advice := func(s *session.Session) []byte {
		out, err := json.Marshal(advise.NewHeuristic().Suggest(advise.Snapshot(s.Wrangler())))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	live, got := advice(sess), advice(restored)
	if len(live) < 100 {
		t.Fatalf("the live session is barely advised: %s", live)
	}
	if !bytes.Equal(live, got) {
		t.Fatalf("advice changed across a restart:\nlive:     %s\nrestored: %s", live, got)
	}
}

// TestSnapshotCarriesNoConfiguration: a snapshot written today has no
// options key, even of a wrangler built with an Option, and one an older
// binary wrote with options no default wrangler has restores with the
// suite's constants — the same session a snapshot without them restores to.
func TestSnapshotCarriesNoConfiguration(t *testing.T) {
	ctx := context.Background()
	w := core.NewWrangler(core.WithMinCoverage(2))
	var buf bytes.Buffer
	if err := ExportSession(&buf, session.New("opt-1", w), nil); err != nil {
		t.Fatal(err)
	}
	_, sections, err := readEnvelope(bytes.NewReader(buf.Bytes()))
	if err != nil || sections[0].kind != sectionMeta {
		t.Fatalf("reading the meta section: %v", err)
	}
	if bytes.Contains(sections[0].data, []byte(`"options"`)) {
		t.Fatalf("a snapshot written today carries options: %s", sections[0].data)
	}

	// Honoured, the old step guard would fail the bootstrap and the old
	// coverage would add base mappings; a restore reads neither.
	old := `{"MatchThreshold":0.42,"FusionThreshold":0.42,` +
		`"GenOptions":{"MatchThreshold":0.42,"MinCoverage":1,"JoinMinOverlap":0.25},"MaxSteps":1}`
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 30
	cfg.Seed = 2
	export := func(options json.RawMessage) []byte {
		t.Helper()
		sess, err := RestoreSession(&SessionSnapshot{Meta: Meta{ID: "old-1", Seed: 2, Scenario: &cfg, Options: options}, KB: kb.New()})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := advise.Snapshot(sess.Wrangler()).MatchThreshold, mapping.DefaultGenOptions().MatchThreshold; got != want {
			t.Fatalf("the advisor's match threshold is %v after a restore, want the constant %v", got, want)
		}
		if _, err := sess.Bootstrap(ctx); err != nil {
			t.Fatalf("bootstrap of a session restored with options %s: %v", options, err)
		}
		res, err := sess.Result()
		if err != nil || res.Cardinality() == 0 {
			t.Fatalf("result after the bootstrap: %v, %v", res, err)
		}
		var out bytes.Buffer
		if err := res.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if got, want := export(json.RawMessage(old)), export(nil); !bytes.Equal(got, want) {
		t.Fatalf("a snapshot with options restores to a different session:\n%s\nwithout them:\n%s", got, want)
	}
}

// TestSnapshotWithoutScenario covers sessions over hand-registered sources:
// no scenario config is invented.
func TestSnapshotWithoutScenario(t *testing.T) {
	w := core.NewWrangler()
	src := relation.New(relation.NewSchema("props", "street", "postcode"))
	src.MustAppend("1 High St", "M1 1AA")
	w.RegisterSource(src)
	sess := session.New("plain-1", w)

	var buf bytes.Buffer
	if err := ExportSession(&buf, sess, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSessionSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Scenario != nil {
		t.Fatal("scenario config invented")
	}
	restored, err := RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Scenario() != nil {
		t.Fatal("restored session invented a scenario")
	}
	if restored.Wrangler().KB.Relation("src_props") == nil && restored.Wrangler().KB.Relation("props") == nil {
		// The registered source's extracted relation may not exist before a
		// run, but its registration fact must survive.
		if restored.Wrangler().KB.Count("src_registered") != 1 {
			t.Fatal("source registration lost")
		}
	}
}

// TestErrorSurface pins the typed error for each way an envelope can be
// malformed.
func TestErrorSurface(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteSessionSnapshot(&valid, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	v := valid.Bytes()

	corrupt := func(mutate func([]byte) []byte) []byte {
		return mutate(append([]byte(nil), v...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", v[:5], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) []byte { b[8] = 99; return b }), ErrBadVersion},
		{"truncated mid-section", v[:len(v)/2], ErrTruncated},
		{"missing end marker", v[:len(v)-1], ErrTruncated},
		{"payload corrupted", corrupt(func(b []byte) []byte { b[20] ^= 0xff; return b }), ErrChecksum},
		{"trailing data", append(append([]byte(nil), v...), 0x01), ErrBadSnapshot},
		{"oversized section", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[10:], MaxSectionBytes+1)
			return b
		}), ErrTooLarge},
		{"unknown section", corrupt(func(b []byte) []byte { b[9] = 0x7f; return b }), ErrBadSnapshot},
	}
	for _, tc := range cases {
		_, err := ReadSessionSnapshot(bytes.NewReader(tc.data))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// Structural cases built from hand-assembled envelopes.
	meta := []byte(`{"id":"s1","created_at":"2026-07-01T12:00:00Z","last_active":"2026-07-01T12:00:00Z"}`)
	kbData := kbBytes(t, kb.New())
	assemble := func(secs []section) []byte {
		var buf bytes.Buffer
		if err := writeEnvelope(&buf, FormatV1, secs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	structural := []struct {
		name string
		data []byte
	}{
		{"missing meta", assemble([]section{{kind: sectionKB, data: kbData}})},
		{"missing kb", assemble([]section{{kind: sectionMeta, data: meta}})},
		{"duplicate meta", assemble([]section{{kind: sectionMeta, data: meta}, {kind: sectionMeta, data: meta}, {kind: sectionKB, data: kbData}})},
		{"meta not json", assemble([]section{{kind: sectionMeta, data: []byte("x")}, {kind: sectionKB, data: kbData}})},
		{"meta trailing json", assemble([]section{{kind: sectionMeta, data: append(append([]byte(nil), meta...), meta...)}, {kind: sectionKB, data: kbData}})},
		{"kb not a snapshot", assemble([]section{{kind: sectionMeta, data: meta}, {kind: sectionKB, data: []byte("x")}})},
		{"empty session id", assemble([]section{{kind: sectionMeta, data: []byte(`{"id":""}`)}, {kind: sectionKB, data: kbData}})},
	}
	for _, tc := range structural {
		_, err := ReadSessionSnapshot(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", tc.name, err)
		}
	}
}

// TestWriteValidation pins the writer's own guardrails.
func TestWriteValidation(t *testing.T) {
	if err := WriteSessionSnapshot(io.Discard, nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("nil snapshot: %v", err)
	}
	if err := WriteSessionSnapshot(io.Discard, &SessionSnapshot{Meta: Meta{ID: "x"}}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("nil KB: %v", err)
	}
	if err := WriteSessionSnapshot(io.Discard, &SessionSnapshot{KB: kb.New()}); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("empty ID: %v", err)
	}
}

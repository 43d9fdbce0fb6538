package kb

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"vada/internal/relation"
)

// mutate drives every kind of KB write once, returning how many ops a delta
// log should have recorded (no-op writes excluded).
func mutate(k *KB) int {
	n := 0
	if k.Assert("md_match", relation.NewTuple("a", 1)) {
		n++
	}
	k.Assert("md_match", relation.NewTuple("a", 1)) // duplicate: no op
	if k.Assert("md_match", relation.NewTuple("b", 2)) {
		n++
	}
	if k.Retract("md_match", relation.NewTuple("a", 1)) {
		n++
	}
	k.Retract("md_match", relation.NewTuple("zz", 9)) // absent: no op
	if k.Assert("fb_item", relation.NewTuple("1 High St", "M1 1AA", "bedrooms", false)) {
		n++
	}
	if k.RetractPredicate("fb_item") > 0 {
		n++
	}
	rel := relation.New(relation.NewSchema("result", "street", "price:float"))
	rel.MustAppend("1 High St", 250000.0)
	k.PutRelation("result", rel)
	n++
	k.PutRelation("scratch", rel)
	n++
	if k.DropRelation("scratch") {
		n++
	}
	k.DropRelation("scratch") // absent: no op
	return n
}

// TestDeltaReplayConverges is the core contract: snapshot + delta == final
// state, byte for byte in the snapshot wire form, version included.
func TestDeltaReplayConverges(t *testing.T) {
	k := New()
	k.Assert("src_registered", relation.NewTuple("rightmove"))
	base := k.Snapshot() // the "last full snapshot"

	k.StartDeltaLog()
	wantOps := mutate(k)
	d := k.CutDelta()
	if d == nil || len(d.Ops) != wantOps {
		t.Fatalf("delta ops = %v, want %d", d, wantOps)
	}
	if d.From != base.Version() || d.To != k.Version() {
		t.Fatalf("delta versions [%d,%d], want [%d,%d]", d.From, d.To, base.Version(), k.Version())
	}

	base.ApplyDelta(d)
	var got, want bytes.Buffer
	if err := base.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("replayed KB drifted:\n got %s\nwant %s", got.Bytes(), want.Bytes())
	}
	if base.Version() != k.Version() {
		t.Fatalf("version drifted: %d vs %d", base.Version(), k.Version())
	}
}

// TestDeltaReplayIdempotent proves re-applying a delta a snapshot already
// folded in cannot corrupt state — the crash-between-snapshot-and-truncate
// window of journal compaction. The claim holds for every op kind except
// patch-rel (mutate logs none: its puts create relations, which journal
// wholesale); a patch re-applied duplicates its added rows, which is why the
// journal skips already-folded records whole instead of re-applying them.
func TestDeltaReplayIdempotent(t *testing.T) {
	k := New()
	k.StartDeltaLog()
	mutate(k)
	d := k.CutDelta()

	final := k.Snapshot()
	final.ApplyDelta(d) // replay onto state that already includes it
	// Content must converge; the version counter may only move forward.
	if got, want := contentJSON(t, final), contentJSON(t, k); got != want {
		t.Fatalf("double replay drifted:\n got %s\nwant %s", got, want)
	}
	if final.Version() < k.Version() {
		t.Fatalf("version went backwards: %d < %d", final.Version(), k.Version())
	}
}

// contentJSON renders a KB's facts and relations with the version counter
// stripped — double-applied deltas converge in content while the counter
// (a change counter, not an identity) may advance further.
func contentJSON(t *testing.T, k *KB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "version")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestDeltaJSONRoundTrip pins the wire form: a delta survives JSON intact,
// typed tuple values included.
func TestDeltaJSONRoundTrip(t *testing.T) {
	k := New()
	k.StartDeltaLog()
	mutate(k)
	d := k.CutDelta()

	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back Delta
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*d, back) {
		t.Fatalf("delta drifted over JSON:\n got %+v\nwant %+v", back, *d)
	}
}

// TestDeltaLogLifecycle covers the opt-in switches: no log without
// StartDeltaLog, cuts reset the window, StopDeltaLog discards.
func TestDeltaLogLifecycle(t *testing.T) {
	k := New()
	if d := k.CutDelta(); d != nil {
		t.Fatalf("cut without a log = %+v", d)
	}
	k.Assert("p", relation.NewTuple(1))
	k.StartDeltaLog()
	k.Assert("p", relation.NewTuple(2))
	d1 := k.CutDelta()
	if len(d1.Ops) != 1 || d1.Ops[0].Kind != DeltaAssert {
		t.Fatalf("first cut = %+v", d1)
	}
	d2 := k.CutDelta()
	if len(d2.Ops) != 0 || d2.From != d1.To {
		t.Fatalf("empty cut = %+v", d2)
	}
	k.Assert("p", relation.NewTuple(3))
	k.StopDeltaLog()
	if d := k.CutDelta(); d != nil {
		t.Fatalf("cut after stop = %+v", d)
	}
}

// TestDeltaMergeLogged proves Merge's inline writes land in the delta log —
// merges replayed from a snapshot must journal like any other mutation.
func TestDeltaMergeLogged(t *testing.T) {
	src := New()
	src.Assert("p", relation.NewTuple("x"))
	rel := relation.New(relation.NewSchema("r", "a"))
	rel.MustAppend("v")
	src.PutRelation("r", rel)

	k := New()
	k.Assert("p", relation.NewTuple("x")) // already present: merge skips it
	k.StartDeltaLog()
	k.Merge(src)
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPutRelation || d.Ops[0].Name != "r" {
		t.Fatalf("merge delta = %+v", d.Ops)
	}
}

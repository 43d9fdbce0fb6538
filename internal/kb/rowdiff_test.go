package kb

import (
	"bytes"
	"testing"

	"vada/internal/relation"
)

func resultRel(rows ...[]any) *relation.Relation {
	rel := relation.New(relation.NewSchema("result", "street", "price:float"))
	for _, r := range rows {
		rel.MustAppend(r...)
	}
	return rel
}

// TestRowDiffPatchOps pins the row-diff capture: replacing a relation with
// an appended/trimmed version logs a DeltaPatchRelation carrying only the
// changed rows, and replaying that delta over the pre-mutation snapshot
// converges byte-identically — the journal's core contract.
func TestRowDiffPatchOps(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 200.0}, []any{"3 High St", 300.0}))
	base := k.Snapshot()

	k.StartDeltaLog()
	// Feedback-shaped replacement: one row dropped, two appended.
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"3 High St", 300.0},
		[]any{"4 Low Rd", 400.0}, []any{"5 Low Rd", 500.0}))
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPatchRelation {
		t.Fatalf("ops = %+v, want one patch-rel", d.Ops)
	}
	op := d.Ops[0]
	if op.Relation != nil {
		t.Fatal("patch op must not carry the full relation")
	}
	if len(op.Added) != 2 || len(op.Removed) != 1 {
		t.Fatalf("patch added %d removed %d, want 2/1", len(op.Added), len(op.Removed))
	}
	if op.Removed[0].Key() != relation.NewTuple("2 High St", 200.0).Key() {
		t.Fatalf("removed = %v", op.Removed)
	}

	restored := base
	restored.ApplyDelta(d)
	var got, want bytes.Buffer
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("replayed snapshot differs: %d vs %d bytes", got.Len(), want.Len())
	}
}

// TestRowDiffUnchangedLogsNothing pins the big win for feedback loops: a
// put that does not change the relation journals zero ops, and replay
// still converges on the version via Delta.To.
func TestRowDiffUnchangedLogsNothing(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
	base := k.Snapshot()

	k.StartDeltaLog()
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
	d := k.CutDelta()
	if len(d.Ops) != 0 {
		t.Fatalf("unchanged put logged %d ops: %+v", len(d.Ops), d.Ops)
	}
	if d.To != k.Version() {
		t.Fatalf("delta To = %d, want live version %d", d.To, k.Version())
	}
	restored := base
	restored.ApplyDelta(d)
	if restored.Version() != k.Version() {
		t.Fatalf("replayed version = %d, want %d", restored.Version(), k.Version())
	}
}

// TestRowDiffMidRelationEdits pins the positional patch path — the
// feedback-loop shape where a few rows change value in the middle of a
// large result relation. The patch must carry only the changed rows plus
// their insertion positions, and replay must converge byte-identically.
func TestRowDiffMidRelationEdits(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 200.0},
		[]any{"3 High St", 300.0}, []any{"4 High St", 400.0},
		[]any{"5 High St", 500.0}))
	base := k.Snapshot()

	k.StartDeltaLog()
	// Row 2 changes value in place, a new row is inserted mid-relation.
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 250.0},
		[]any{"3 High St", 300.0}, []any{"3a High St", 350.0},
		[]any{"4 High St", 400.0}, []any{"5 High St", 500.0}))
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPatchRelation {
		t.Fatalf("ops = %+v, want one patch-rel", d.Ops)
	}
	op := d.Ops[0]
	if len(op.Added) != 2 || len(op.Removed) != 1 {
		t.Fatalf("patch added %d removed %d, want 2/1", len(op.Added), len(op.Removed))
	}
	if want := []int{1, 3}; len(op.AddedAt) != 2 || op.AddedAt[0] != want[0] || op.AddedAt[1] != want[1] {
		t.Fatalf("added_at = %v, want %v", op.AddedAt, want)
	}
	if op.Removed[0].Key() != relation.NewTuple("2 High St", 200.0).Key() {
		t.Fatalf("removed = %v", op.Removed)
	}

	restored := base
	restored.ApplyDelta(d)
	var got, want bytes.Buffer
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("replayed snapshot differs from live state")
	}
}

// TestRowDiffTailAppendOmitsPositions pins the wire shape: pure tail
// appends keep the nil added_at encoding.
func TestRowDiffTailAppendOmitsPositions(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}, []any{"2 High St", 200.0}))
	k.StartDeltaLog()
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 200.0}, []any{"3 High St", 300.0}))
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPatchRelation {
		t.Fatalf("ops = %+v, want one patch-rel", d.Ops)
	}
	if d.Ops[0].AddedAt != nil {
		t.Fatalf("tail append carried positions: %v", d.Ops[0].AddedAt)
	}
}

// TestPatchRelationAtMalformedPositions pins the degradation contract:
// short or out-of-range position lists never panic and flush unplaceable
// additions to the tail, deterministically.
func TestPatchRelationAtMalformedPositions(t *testing.T) {
	for _, addedAt := range [][]int{{99}, {0, 99}, {1}, nil} {
		k := New()
		k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
		if !k.PatchRelationAt("result",
			[]relation.Tuple{relation.NewTuple("2 High St", 200.0), relation.NewTuple("3 High St", 300.0)},
			addedAt, nil) {
			t.Fatalf("addedAt=%v: patch failed", addedAt)
		}
		if got := k.RelationCardinality("result"); got != 3 {
			t.Fatalf("addedAt=%v: cardinality = %d, want 3", addedAt, got)
		}
	}
}

// TestRowDiffCoalescesRePuts pins same-cut coalescing: a stage that
// replaces the same relation several times (execute, repair, re-execute)
// journals one op carrying the net diff against the cut-start state, and a
// re-put landing back on the original state journals nothing at all.
func TestRowDiffCoalescesRePuts(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 200.0}, []any{"3 High St", 300.0}))
	base := k.Snapshot()

	k.StartDeltaLog()
	// Three successive replacements within one cut — the repair-loop shape.
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 999.0}, []any{"3 High St", 300.0}))
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 250.0}, []any{"3 High St", 300.0}))
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 250.0},
		[]any{"3 High St", 300.0}, []any{"4 High St", 400.0}))
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPatchRelation {
		t.Fatalf("ops = %+v, want one coalesced patch-rel", d.Ops)
	}
	// Net change vs cut start: row 2 revalued plus one append — the two
	// intermediate states never hit the log.
	if op := d.Ops[0]; len(op.Added) != 2 || len(op.Removed) != 1 {
		t.Fatalf("coalesced patch added %d removed %d, want 2/1", len(op.Added), len(op.Removed))
	}
	restored := base
	restored.ApplyDelta(d)
	var got, want bytes.Buffer
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("coalesced replay differs from live state")
	}

	// A round trip back to the cut-start state tombstones the op.
	k.PutRelation("result", resultRel([]any{"9 New St", 900.0}))
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 250.0},
		[]any{"3 High St", 300.0}, []any{"4 High St", 400.0}))
	if d := k.CutDelta(); len(d.Ops) != 0 {
		t.Fatalf("round-trip re-put logged %d ops: %+v", len(d.Ops), d.Ops)
	}
}

// TestRowDiffCoalesceRespectsDrop pins op ordering around drops: a put
// after a same-cut drop must not rewrite the pre-drop op, and must journal
// wholesale (replay passes through the drop).
func TestRowDiffCoalesceRespectsDrop(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
	base := k.Snapshot()

	k.StartDeltaLog()
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}, []any{"2 High St", 200.0}))
	k.DropRelation("result")
	k.PutRelation("result", resultRel([]any{"3 High St", 300.0}))
	d := k.CutDelta()
	if len(d.Ops) != 3 {
		t.Fatalf("ops = %+v, want patch, drop, put", d.Ops)
	}
	if d.Ops[1].Kind != DeltaDropRelation {
		t.Fatalf("middle op = %+v, want drop-rel", d.Ops[1])
	}
	if d.Ops[2].Kind != DeltaPutRelation {
		t.Fatalf("post-drop op = %+v, want wholesale put-rel", d.Ops[2])
	}
	restored := base
	restored.ApplyDelta(d)
	var got, want bytes.Buffer
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("replay across drop differs from live state")
	}
}

// TestRowDiffFallbacks pins every wholesale-fallback path: first put (no
// old), schema change, reordering, and diffs as large as the relation.
func TestRowDiffFallbacks(t *testing.T) {
	cases := []struct {
		name string
		prep func(k *KB)
		put  func(k *KB)
	}{
		{"first put", func(k *KB) {}, func(k *KB) {
			k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
		}},
		{"schema change", func(k *KB) {
			k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
		}, func(k *KB) {
			rel := relation.New(relation.NewSchema("result", "street", "postcode", "price:float"))
			rel.MustAppend("1 High St", "M1 1AA", 100.0)
			k.PutRelation("result", rel)
		}},
		{"reorder", func(k *KB) {
			k.PutRelation("result", resultRel([]any{"1 High St", 100.0}, []any{"2 High St", 200.0}))
		}, func(k *KB) {
			k.PutRelation("result", resultRel([]any{"2 High St", 200.0}, []any{"1 High St", 100.0}))
		}},
		{"full replacement", func(k *KB) {
			k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
		}, func(k *KB) {
			k.PutRelation("result", resultRel([]any{"9 New St", 900.0}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			tc.prep(k)
			base := k.Snapshot()
			k.StartDeltaLog()
			tc.put(k)
			d := k.CutDelta()
			if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPutRelation {
				t.Fatalf("ops = %+v, want one wholesale put-rel", d.Ops)
			}
			restored := base
			restored.ApplyDelta(d)
			var got, want bytes.Buffer
			if err := restored.WriteSnapshot(&got); err != nil {
				t.Fatal(err)
			}
			if err := k.WriteSnapshot(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("replayed snapshot differs from live state")
			}
		})
	}
}

// TestRowDiffBagSemantics exercises duplicate rows: multiplicity changes
// must patch exactly (bag, not set, semantics).
func TestRowDiffBagSemantics(t *testing.T) {
	k := New()
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"1 High St", 100.0}, []any{"2 High St", 200.0}))
	base := k.Snapshot()

	k.StartDeltaLog()
	// One duplicate drops, one new duplicate of row 2 appends.
	k.PutRelation("result", resultRel(
		[]any{"1 High St", 100.0}, []any{"2 High St", 200.0}, []any{"2 High St", 200.0}))
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPatchRelation {
		t.Fatalf("ops = %+v, want one patch-rel", d.Ops)
	}
	restored := base
	restored.ApplyDelta(d)
	var got, want bytes.Buffer
	if err := restored.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := k.WriteSnapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("replayed snapshot differs from live state")
	}
}

// TestPatchRelationDirect pins the apply surface: absent targets are
// skipped (epoch already folded into a snapshot), empty patches are no-ops,
// and an applied patch is itself re-logged so chained delta logs converge.
func TestPatchRelationDirect(t *testing.T) {
	k := New()
	if k.PatchRelationAt("missing", []relation.Tuple{relation.NewTuple("x", 1.0)}, nil, nil) {
		t.Fatal("patching an absent relation must report false")
	}
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
	v := k.Version()
	if !k.PatchRelationAt("result", nil, nil, nil) {
		t.Fatal("empty patch on present relation must report true")
	}
	if k.Version() != v {
		t.Fatal("empty patch must not advance the version")
	}
	k.StartDeltaLog()
	if !k.PatchRelationAt("result", []relation.Tuple{relation.NewTuple("2 High St", 200.0)}, nil, nil) {
		t.Fatal("patch failed")
	}
	d := k.CutDelta()
	if len(d.Ops) != 1 || d.Ops[0].Kind != DeltaPatchRelation || len(d.Ops[0].Added) != 1 {
		t.Fatalf("pass-through log = %+v", d.Ops)
	}
	if got := k.RelationCardinality("result"); got != 2 {
		t.Fatalf("cardinality after patch = %d, want 2", got)
	}
}

package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"testing"

	"vada/internal/kb"
	"vada/internal/relation"
)

// resultRel is a two-column relation of the given rows.
func resultRel(rows ...[]any) *relation.Relation {
	rel := relation.New(relation.NewSchema("result", "street", "price:float"))
	for _, r := range rows {
		rel.MustAppend(r...)
	}
	return rel
}

// mutate drives every kind of knowledge-base write once over k — no-op
// writes among them — and returns the delta an older binary's log cut of
// them: the writes that changed something, in order, and the version after.
func mutate(k *kb.KB) *Delta {
	rel := resultRel([]any{"1 High St", 250000.0})
	ops := []DeltaOp{
		{Kind: DeltaAssert, Name: "md_match", Tuple: relation.NewTuple("a", 1)},
		{Kind: DeltaAssert, Name: "md_match", Tuple: relation.NewTuple("b", 2)},
		{Kind: DeltaRetract, Name: "md_match", Tuple: relation.NewTuple("a", 1)},
		{Kind: DeltaAssert, Name: "fb_item", Tuple: relation.NewTuple("1 High St", "M1 1AA", "bedrooms", false)},
		{Kind: DeltaRetractPredicate, Name: "fb_item"},
		{Kind: DeltaPutRelation, Name: "result", Relation: rel},
		{Kind: DeltaPutRelation, Name: "scratch", Relation: rel},
		{Kind: DeltaDropRelation, Name: "scratch"},
		{Kind: DeltaPatchRelation, Name: "result", Added: []relation.Tuple{relation.NewTuple("0 Low Rd", 1.5)},
			AddedAt: []int{0}, Removed: []relation.Tuple{relation.NewTuple("1 High St", 250000.0)}},
	}
	from := k.Version()
	k.Assert("md_match", relation.NewTuple("a", 1))
	k.Assert("md_match", relation.NewTuple("a", 1)) // duplicate: no op
	k.Assert("md_match", relation.NewTuple("b", 2))
	k.Retract("md_match", relation.NewTuple("a", 1))
	k.Retract("md_match", relation.NewTuple("zz", 9)) // absent: no op
	k.Assert("fb_item", relation.NewTuple("1 High St", "M1 1AA", "bedrooms", false))
	k.RetractPredicate("fb_item")
	k.PutRelation("result", rel)
	k.PutRelation("scratch", rel)
	k.DropRelation("scratch")
	k.DropRelation("scratch") // absent: no op
	k.PutRelation("result", resultRel([]any{"0 Low Rd", 1.5}))
	return &Delta{From: from, To: k.Version(), Ops: ops}
}

// contentJSON is a knowledge base's snapshot with the version stripped.
func contentJSON(t *testing.T, k *kb.KB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return string(regexp.MustCompile(`^\{"version":\d+,`).ReplaceAll(buf.Bytes(), []byte("{")))
}

// TestDeltaReplayConverges is the reader's contract: the state an older
// binary's delta was cut from, with the delta applied, is the state it was
// cut at, byte for byte in the snapshot wire form, version included.
func TestDeltaReplayConverges(t *testing.T) {
	k := kb.New()
	k.Assert("src_registered", relation.NewTuple("rightmove"))
	base := k.Snapshot()
	d := mutate(k)
	d.apply(base)
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
}

// TestDeltaReplayIdempotent: re-applying a delta whose ops are all
// convergent onto a state that already includes it leaves the content as it
// was — the claim holds for every op kind but patch-rel, whose added rows a
// second application duplicates; that is why a record a snapshot already
// folds in is skipped whole.
func TestDeltaReplayIdempotent(t *testing.T) {
	k := kb.New()
	d := mutate(k)
	d.Ops = d.Ops[:len(d.Ops)-1] // the patch
	k.PutRelation("result", resultRel([]any{"1 High St", 250000.0}))
	final := k.Snapshot()
	d.apply(final)
	if got, want := contentJSON(t, final), contentJSON(t, k); got != want {
		t.Fatalf("double replay drifted:\n got %s\nwant %s", got, want)
	}
	if final.Version() < k.Version() {
		t.Fatalf("version went backwards: %d < %d", final.Version(), k.Version())
	}
}

// TestDeltaJSONRoundTrip pins the wire form the reader decodes: a delta
// survives JSON intact, typed tuple values included.
func TestDeltaJSONRoundTrip(t *testing.T) {
	d := mutate(kb.New())
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

// TestPatchRelationAtMalformedPositions pins the degradation contract:
// short or out-of-range position lists never panic and flush unplaceable
// additions to the tail, deterministically.
func TestPatchRelationAtMalformedPositions(t *testing.T) {
	for _, addedAt := range [][]int{{99}, {0, 99}, {1}, nil} {
		k := kb.New()
		k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
		if !patchRelationAt(k, "result",
			[]relation.Tuple{relation.NewTuple("2 High St", 200.0), relation.NewTuple("3 High St", 300.0)},
			addedAt, nil) {
			t.Fatalf("addedAt=%v: patch failed", addedAt)
		}
		if got := k.RelationCardinality("result"); got != 3 {
			t.Fatalf("addedAt=%v: cardinality = %d, want 3", addedAt, got)
		}
	}
}

// TestPatchRelationDirect pins the patch surface: an absent target is
// skipped (its epoch is already folded into a snapshot), an empty patch is a
// no-op, and a patch stores a new relation, leaving the one a reader holds
// as it was.
func TestPatchRelationDirect(t *testing.T) {
	k := kb.New()
	if patchRelationAt(k, "missing", []relation.Tuple{relation.NewTuple("x", 1.0)}, nil, nil) {
		t.Fatal("patching an absent relation must report false")
	}
	k.PutRelation("result", resultRel([]any{"1 High St", 100.0}))
	v := k.Version()
	if !patchRelationAt(k, "result", nil, nil, nil) {
		t.Fatal("empty patch on present relation must report true")
	}
	if k.Version() != v {
		t.Fatal("empty patch must not advance the version")
	}
	before := k.Relation("result")
	if !patchRelationAt(k, "result", []relation.Tuple{relation.NewTuple("2 High St", 200.0)}, []int{0},
		[]relation.Tuple{relation.NewTuple("1 High St", 100.0)}) {
		t.Fatal("patch failed")
	}
	after := k.Relation("result")
	if before.Cardinality() != 1 || before.Tuples[0][0].Str() != "1 High St" {
		t.Fatalf("the patch wrote through the relation a reader holds: %v", before)
	}
	if after.Cardinality() != 1 || after.Tuples[0][0].Str() != "2 High St" {
		t.Fatalf("patched relation = %v", after)
	}
}

package kb

import (
	"strings"
	"testing"

	"vada/internal/relation"
)

func TestSnapshotRoundTrip(t *testing.T) {
	k := New()
	k.Assert("md_match", tup("rightmove", "price", "price", 0.97))
	k.Assert("md_match", tup("rightmove", "street", "street", 1.0))
	k.Assert("fb_item", tup("1 High St", "M1 1AA", "bedrooms", false))
	rel := relation.New(relation.NewSchema("result", "street", "bedrooms:int", "price:float", "ok:bool"))
	rel.MustAppend("1 High St", 3, 250000.0, true)
	rel.MustAppend(nil, nil, nil, nil)
	k.PutRelation("result", rel)

	var buf strings.Builder
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	if restored.Count("md_match") != 2 || restored.Count("fb_item") != 1 {
		t.Fatalf("facts lost: %v", restored)
	}
	if !restored.Has("md_match", tup("rightmove", "price", "price", 0.97)) {
		t.Fatal("typed fact tuple lost")
	}
	r2 := restored.Relation("result")
	if r2 == nil || r2.Cardinality() != 2 {
		t.Fatalf("relation lost: %v", r2)
	}
	if !r2.Schema.Equal(rel.Schema) {
		t.Fatalf("schema changed: %v vs %v", r2.Schema, rel.Schema)
	}
	// Types survive: int stays int, null stays null (not "").
	v := r2.Tuples[0][r2.Schema.AttrIndex("bedrooms")]
	if v.Kind() != relation.KindInt || v.IntVal() != 3 {
		t.Fatalf("bedrooms round trip = %v (%v)", v, v.Kind())
	}
	v = r2.Tuples[1][r2.Schema.AttrIndex("street")]
	if !v.IsNull() {
		t.Fatalf("null round trip = %v", v)
	}
	if restored.Version() < k.Version() {
		t.Fatalf("version regressed: %d < %d", restored.Version(), k.Version())
	}
}

func TestSnapshotEmptyKB(t *testing.T) {
	var buf strings.Builder
	if err := New().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s := restored.Stats(); s.Facts != 0 || s.Relations != 0 {
		t.Fatal("empty KB should restore empty")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() string {
		k := New()
		k.Assert("p", tup("b"))
		k.Assert("p", tup("a"))
		k.Assert("q", tup(2))
		var buf strings.Builder
		if err := k.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if build() != build() {
		t.Fatal("snapshots should be deterministic")
	}
}

func TestReadSnapshotGarbage(t *testing.T) {
	if _, err := ReadSnapshot([]byte("not json")); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestMerge(t *testing.T) {
	dst := New()
	dst.Assert("src_registered", tup("rightmove"))
	dst.Assert("uc_target_schema", tup("target"))

	src := New()
	src.Assert("src_registered", tup("rightmove")) // duplicate: no-op
	src.Assert("md_selected", tup("m1", 1))
	rel := relation.New(relation.NewSchema("result", "street"))
	rel.MustAppend("1 High St")
	src.PutRelation("result", rel)
	srcVersion := src.Version()

	dst.Merge(src)

	if !dst.Has("md_selected", tup("m1", 1)) || !dst.Has("uc_target_schema", tup("target")) {
		t.Fatalf("merge lost facts: %v", dst)
	}
	if dst.Count("src_registered") != 1 {
		t.Fatalf("duplicate fact duplicated: %d", dst.Count("src_registered"))
	}
	if got := dst.Relation("result"); got == nil || got.Cardinality() != 1 {
		t.Fatalf("merge lost relation: %v", got)
	}
	if dst.Version() < srcVersion {
		t.Fatalf("merged version %d regressed below source %d", dst.Version(), srcVersion)
	}
	// Merge is idempotent: re-merging changes nothing but the version check.
	before := dst.Stats()
	dst.Merge(src)
	after := dst.Stats()
	if before.Facts != after.Facts || before.Relations != after.Relations {
		t.Fatalf("re-merge changed contents: %+v vs %+v", before, after)
	}
}

//go:build kbcheck

package kb

import (
	"fmt"
	"strings"
	"testing"

	"vada/internal/relation"
)

// mustPanicNaming runs f and fails unless it panics with a message naming
// what was written through.
func mustPanicNaming(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "kbcheck") || !strings.Contains(msg, `"`+name+`"`) {
			t.Fatalf("want a kbcheck panic naming %q, got %s", name, msg)
		}
	}()
	f()
}

// TestKBCheckCatchesWrite proves the build tag can fail: writing a cell of a
// relation after putting it, or of a fact tuple read back, is caught at the
// next read, put, cut or snapshot, by name.
func TestKBCheckCatchesWrite(t *testing.T) {
	put := func() (*KB, *relation.Relation) {
		k := New()
		r := relation.New(relation.NewSchema("s", "a"))
		r.MustAppend("v1")
		k.PutRelation("src_s", r)
		k.Assert("md_fact", tup("x"))
		return k, r
	}
	write := func(r *relation.Relation) { r.Tuples[0][0] = relation.String("written") }

	k, r := put()
	write(r)
	mustPanicNaming(t, "src_s", func() { k.Relation("src_s") })

	k, _ = put()
	write(k.Relation("src_s")) // a reader's write is the same offence
	mustPanicNaming(t, "src_s", func() { k.PutRelation("src_s", relation.New(r.Schema)) })

	k, r = put()
	write(r)
	mustPanicNaming(t, "src_s", func() { k.Digest() })

	k, r = put()
	write(r)
	mustPanicNaming(t, "src_s", func() { k.Snapshot() })

	k, r = put()
	r.MustAppend("v2") // growing it is a write too
	mustPanicNaming(t, "src_s", func() { k.DropRelation("src_s") })

	k, _ = put()
	k.Facts("md_fact")[0][0] = relation.String("written")
	mustPanicNaming(t, "md_fact", func() { k.Facts("md_fact") })

	// Building a new relation from the stored rows is the way to change one.
	k, r = put()
	next := r.Shallow()
	next.Tuples[0] = next.Tuples[0].With(0, relation.String("rewritten"))
	k.PutRelation("src_s", next)
	if r.Tuples[0][0].Str() != "v1" || k.Relation("src_s").Tuples[0][0].Str() != "rewritten" {
		t.Fatal("a shallow copy with a replaced row must leave the stored relation alone")
	}
	k.Snapshot()
}

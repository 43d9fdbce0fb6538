package kb

import (
	"math"
	"testing"

	"vada/internal/relation"
)

// digestFixture is a knowledge base with a fact and a row of every kind, a
// string of more than eight bytes among them.
func digestFixture(order []int) *KB {
	facts := []relation.Tuple{
		relation.NewTuple("a long string value", 7),
		relation.NewTuple(2.5, true),
		relation.NewTuple(nil, math.NaN()),
	}
	k := New()
	for _, i := range order {
		k.Assert("p", facts[i])
	}
	rel := relation.New(relation.NewSchema("r", "street", "n:int", "x:float"))
	rel.MustAppend("1 High St", 3, -0.0)
	rel.MustAppend("2 High St", nil, 1e21)
	k.PutRelation("result", rel)
	return k
}

// TestDigest pins what a journal's digest is: the content — facts as a set,
// rows in order — and neither the version nor the values beside the content,
// and the same number in every process (a string hash seeded per process,
// like Tuple.Hash's, would fail the pinned value).
func TestDigest(t *testing.T) {
	k := digestFixture([]int{0, 1, 2})
	want := k.Digest()
	if got := digestFixture([]int{2, 0, 1}).Digest(); got != want {
		t.Fatalf("asserting the same facts in another order moved the digest: %016x, want %016x", got, want)
	}
	k.SetVersion(k.Version() + 100)
	k.PutValue("cell", 1)
	if got := k.Digest(); got != want {
		t.Fatalf("the version or a value moved the digest: %016x, want %016x", got, want)
	}
	if want != 0xf62e8b3d31f2e615 {
		t.Fatalf("digest %016x: not the pinned value, so not the digest another process computes", want)
	}
	rel := k.Relation("result")
	swapped := &relation.Relation{Schema: rel.Schema, Tuples: []relation.Tuple{rel.Tuples[1], rel.Tuples[0]}}
	k.PutRelation("result", swapped)
	if k.Digest() == want {
		t.Fatal("reordering a relation's rows did not move the digest")
	}
	k.PutRelation("result", rel)
	k.Retract("p", relation.NewTuple(2.5, true))
	k.Assert("p", relation.NewTuple(2.5, 1))
	if k.Digest() == want {
		t.Fatal("a fact of another kind did not move the digest")
	}
}

package kb

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"vada/internal/relation"
)

func tup(vals ...any) relation.Tuple { return relation.NewTuple(vals...) }

func TestAssertAndDuplicate(t *testing.T) {
	k := New()
	if !k.Assert("p", tup("a", 1)) {
		t.Fatal("first assert should be new")
	}
	if k.Assert("p", tup("a", 1)) {
		t.Fatal("duplicate assert should report false")
	}
	if k.Count("p") != 1 {
		t.Fatalf("count = %d, want 1", k.Count("p"))
	}
	if !k.Has("p", tup("a", 1)) {
		t.Fatal("fact should be present")
	}
	if k.Has("p", tup("a", 2)) {
		t.Fatal("different fact should be absent")
	}
}

func TestVersionMonotone(t *testing.T) {
	k := New()
	v0 := k.Version()
	k.Assert("p", tup(1))
	v1 := k.Version()
	k.Assert("p", tup(1)) // duplicate: no version bump
	v2 := k.Version()
	if !(v0 < v1 && v1 == v2) {
		t.Fatalf("versions %d %d %d: want bump then stable", v0, v1, v2)
	}
	k.Retract("p", tup(1))
	if k.Version() <= v2 {
		t.Fatal("retract should bump version")
	}
}

func TestRetract(t *testing.T) {
	k := New()
	k.Assert("p", tup("a"))
	k.Assert("p", tup("b"))
	k.Assert("p", tup("c"))
	if !k.Retract("p", tup("b")) {
		t.Fatal("retract of present fact should succeed")
	}
	if k.Retract("p", tup("b")) {
		t.Fatal("retract of absent fact should fail")
	}
	if k.Count("p") != 2 {
		t.Fatalf("count = %d, want 2", k.Count("p"))
	}
	// Swap-delete must keep remaining facts findable.
	if !k.Has("p", tup("a")) || !k.Has("p", tup("c")) {
		t.Fatal("remaining facts lost after retract")
	}
	if k.Retract("q", tup("a")) {
		t.Fatal("retract from unknown predicate should fail")
	}
}

func TestRetractPredicateAndWhere(t *testing.T) {
	k := New()
	for i := 0; i < 5; i++ {
		k.Assert("p", tup(i))
	}
	n := k.RetractWhere("p", func(t relation.Tuple) bool { return t[0].IntVal()%2 == 0 })
	if n != 3 {
		t.Fatalf("RetractWhere removed %d, want 3", n)
	}
	if got := k.RetractPredicate("p"); got != 2 {
		t.Fatalf("RetractPredicate removed %d, want 2", got)
	}
	if k.Count("p") != 0 {
		t.Fatal("predicate should be empty")
	}
	if k.RetractPredicate("p") != 0 {
		t.Fatal("empty retract should be 0")
	}
}

func TestFactsAreCopies(t *testing.T) {
	k := New()
	k.Assert("p", tup("x"))
	fs := k.Facts("p")
	fs[0][0] = relation.String("mutated")
	if !k.Has("p", tup("x")) {
		t.Fatal("mutating returned facts must not affect the KB")
	}
}

func TestFactsWhere(t *testing.T) {
	k := New()
	for i := 0; i < 10; i++ {
		k.Assert("n", tup(i))
	}
	odd := k.FactsWhere("n", func(t relation.Tuple) bool { return t[0].IntVal()%2 == 1 })
	if len(odd) != 5 {
		t.Fatalf("got %d odd facts, want 5", len(odd))
	}
}

func TestPredicatesSorted(t *testing.T) {
	k := New()
	k.Assert("zeta", tup(1))
	k.Assert("alpha", tup(1))
	k.Assert("mid", tup(1))
	got := k.Predicates()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("Predicates() = %v, want %v", got, want)
	}
}

func TestRelationsStoreCopies(t *testing.T) {
	k := New()
	r := relation.New(relation.NewSchema("s", "a"))
	r.MustAppend("v1")
	k.PutRelation("src_s", r)
	r.MustAppend("v2") // mutate after put
	stored := k.Relation("src_s")
	if stored.Cardinality() != 1 {
		t.Fatalf("stored relation sees later mutation: %d tuples", stored.Cardinality())
	}
	stored.MustAppend("v3")
	if k.Relation("src_s").Cardinality() != 1 {
		t.Fatal("mutating returned relation must not affect the KB")
	}
	if k.Relation("ghost") != nil {
		t.Fatal("missing relation should be nil")
	}
	if !k.HasRelation("src_s") || k.HasRelation("ghost") {
		t.Fatal("HasRelation wrong")
	}
}

func TestDropRelationAndNames(t *testing.T) {
	k := New()
	k.PutRelation("src_a", relation.New(relation.NewSchema("a", "x")))
	k.PutRelation("src_b", relation.New(relation.NewSchema("b", "x")))
	k.PutRelation("res_c", relation.New(relation.NewSchema("c", "x")))
	names := k.RelationNames("src_")
	if len(names) != 2 || names[0] != "src_a" || names[1] != "src_b" {
		t.Fatalf("RelationNames(src_) = %v", names)
	}
	if len(k.RelationNames("")) != 3 {
		t.Fatal("all names wrong")
	}
	if !k.DropRelation("src_a") || k.DropRelation("src_a") {
		t.Fatal("drop semantics wrong")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	k := New()
	k.Assert("p", tup(1))
	r := relation.New(relation.NewSchema("s", "a"))
	r.MustAppend("v")
	k.PutRelation("rel", r)

	snap := k.Snapshot()
	k.Assert("p", tup(2))
	k.DropRelation("rel")

	if snap.Count("p") != 1 {
		t.Fatalf("snapshot fact count = %d, want 1", snap.Count("p"))
	}
	if snap.Relation("rel") == nil {
		t.Fatal("snapshot lost relation")
	}
	snap.Assert("p", tup(3))
	if k.Has("p", tup(3)) {
		t.Fatal("snapshot writes must not leak back")
	}
}

func TestStatsAndString(t *testing.T) {
	k := New()
	k.Assert("p", tup(1))
	k.Assert("p", tup(2))
	k.Assert("q", tup(1))
	rel := relation.New(relation.NewSchema("s", "a"))
	rel.MustAppend("x")
	k.PutRelation("r", rel)
	s := k.Stats()
	if s.Facts != 3 || s.FactPredicates != 2 || s.Relations != 1 || s.Tuples != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if k.String() == "" {
		t.Fatal("String empty")
	}
}

func TestConcurrentAssertRetract(t *testing.T) {
	k := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k.Assert("p", tup(w, i))
				if i%3 == 0 {
					k.Retract("p", tup(w, i))
				}
				_ = k.Count("p")
				_ = k.Facts("p")
			}
		}(w)
	}
	wg.Wait()
	// Each worker keeps the tuples not divisible by 3: 200 - 67 = 133.
	want := 8 * 133
	if got := k.Count("p"); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
}

// Property: a sequence of asserts of distinct tuples yields count == n and
// all facts retrievable.
func TestPropAssertRetrieve(t *testing.T) {
	f := func(n uint8) bool {
		k := New()
		for i := 0; i < int(n); i++ {
			k.Assert("p", tup(fmt.Sprintf("k%d", i), i))
		}
		if k.Count("p") != int(n) {
			return false
		}
		for i := 0; i < int(n); i++ {
			if !k.Has("p", tup(fmt.Sprintf("k%d", i), i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: assert-then-retract restores absence and count.
func TestPropAssertRetractInverse(t *testing.T) {
	f := func(n uint8) bool {
		k := New()
		for i := 0; i < int(n); i++ {
			k.Assert("p", tup(i))
		}
		for i := 0; i < int(n); i++ {
			if !k.Retract("p", tup(i)) {
				return false
			}
		}
		return k.Count("p") == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

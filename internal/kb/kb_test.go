package kb

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
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

// TestFactsAreCopies pins what Facts promises now that the tuples are
// shared: the slice is the caller's — sorting or cutting it does nothing to
// the knowledge base — and a tuple handed to Assert stays the caller's.
func TestFactsAreCopies(t *testing.T) {
	k := New()
	mine := tup("b")
	k.Assert("p", mine)
	k.Assert("p", tup("a"))
	k.Assert("p", tup("c"))
	mine[0] = relation.String("mutated") // Assert stored a copy
	if !k.Has("p", tup("b")) || k.Has("p", tup("mutated")) {
		t.Fatal("writing to an asserted tuple afterwards must not affect the KB")
	}

	fs := k.Facts("p")
	sort.Slice(fs, func(i, j int) bool { return fs[i][0].Str() < fs[j][0].Str() })
	fs[2] = tup("overwritten")
	fs = fs[:1]
	again := k.Facts("p")
	if len(fs) != 1 || len(again) != 3 || again[0][0].Str() != "b" || again[1][0].Str() != "a" || again[2][0].Str() != "c" {
		t.Fatalf("sorting and cutting a Facts slice changed the KB: %v", again)
	}
	if !k.Retract("p", tup("c")) || !k.Has("p", tup("a")) {
		t.Fatal("facts must stay findable after a caller reordered its slice")
	}
}

// TestRelationsStoreCopies pins the ownership contract that replaced
// copying: a relation that is put is the stored one and the one every reader
// gets, and a change is a new relation under the name, which leaves the old
// one — and whoever still reads it — alone.
func TestRelationsStoreCopies(t *testing.T) {
	k := New()
	r := relation.New(relation.NewSchema("s", "a"))
	r.MustAppend("v1")
	k.PutRelation("src_s", r)
	if k.Relation("src_s") != r || k.Relation("src_s") != k.Relation("src_s") {
		t.Fatal("a put relation is the stored one, shared by every read")
	}

	// Changing it is building another: the old rows are shared, not copied.
	next := &relation.Relation{Schema: r.Schema, Tuples: append(r.Tuples[:1:1], tup("v2"))}
	k.PutRelation("src_s", next)
	if r.Cardinality() != 1 || k.Relation("src_s").Cardinality() != 2 {
		t.Fatalf("a put must replace, not write through: old %d rows, stored %d", r.Cardinality(), k.Relation("src_s").Cardinality())
	}
	if &k.Relation("src_s").Tuples[0][0] != &r.Tuples[0][0] {
		t.Fatal("rows that stay are shared between the old relation and the new")
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

// TestSnapshotIsolation: a Snapshot, and the bytes of a WriteSnapshot, taken
// before a write still show the state before it — although neither copied a
// row — and writes to a snapshot stay in the snapshot.
func TestSnapshotIsolation(t *testing.T) {
	k := New()
	k.Assert("p", tup(1))
	k.Assert("p", tup(2))
	r := relation.New(relation.NewSchema("s", "a"))
	r.MustAppend("v1")
	r.MustAppend("v2")
	k.PutRelation("rel", r)
	k.PutRelation("gone", relation.New(relation.NewSchema("g", "a")))

	snap := k.Snapshot()
	var written bytes.Buffer
	if err := k.WriteSnapshot(&written); err != nil {
		t.Fatal(err)
	}

	k.Assert("p", tup(3))
	k.Retract("p", tup(1))
	k.PutRelation("rel", &relation.Relation{Schema: r.Schema, Tuples: []relation.Tuple{r.Tuples[1], tup("v3")}})
	k.PutRelation("rel", &relation.Relation{Schema: r.Schema, Tuples: k.Relation("rel").Tuples[:1]})
	k.DropRelation("gone")

	restored, err := ReadSnapshot(written.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for name, old := range map[string]*KB{"Snapshot": snap, "WriteSnapshot": restored} {
		if old.Count("p") != 2 || !old.Has("p", tup(1)) || old.Has("p", tup(3)) {
			t.Fatalf("%s shows later fact writes: %v", name, old.Facts("p"))
		}
		rel := old.Relation("rel")
		if rel == nil || rel.Cardinality() != 2 || rel.Tuples[0][0].Str() != "v1" || rel.Tuples[1][0].Str() != "v2" {
			t.Fatalf("%s shows later relation writes: %v", name, rel)
		}
		if !old.HasRelation("gone") {
			t.Fatalf("%s lost a relation dropped later", name)
		}
	}
	if got := k.Relation("rel"); got.Cardinality() != 1 || got.Tuples[0][0].Str() != "v2" {
		t.Fatalf("live relation = %v", got)
	}

	snap.Assert("p", tup(4))
	snap.Retract("p", tup(2))
	snap.DropRelation("rel")
	if k.Has("p", tup(4)) || !k.Has("p", tup(2)) || !k.HasRelation("rel") {
		t.Fatal("snapshot writes must not leak back")
	}
}

// TestPatchDoesNotDisturbReaders runs readers that hold on to a Relation()
// result and scan it while PutRelation — of a relation sharing half its rows
// with the stored one, or of a fresh one — and DropRelation replace what is
// stored: every reader sees one consistent relation — all of
// its rows belong to the same generation — and the race detector sees no
// write to anything a reader holds.
func TestPatchDoesNotDisturbReaders(t *testing.T) {
	k := New()
	schema := relation.NewSchema("r", "gen:int", "row:int")
	generation := func(gen, rows int) *relation.Relation {
		r := relation.New(schema)
		for i := 0; i < rows; i++ {
			r.MustAppend(gen, i)
		}
		return r
	}
	k.PutRelation("r", generation(0, 50))

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := k.Relation("r")
				if r == nil {
					continue // between a drop and the next put
				}
				gens := map[int64]int{}
				for _, tu := range r.Tuples {
					gens[tu[0].IntVal()]++
				}
				// A half-swapped relation mixes exactly two generations,
				// half and half; a fresh one has a single generation.
				if len(gens) > 2 || len(r.Tuples) != 50 {
					t.Errorf("reader saw a torn relation: %d rows, generations %v", len(r.Tuples), gens)
					return
				}
			}
		}()
	}
	for gen := 1; gen <= 200; gen++ {
		cur := k.Relation("r")
		switch gen % 3 {
		case 0:
			k.PutRelation("r", generation(gen, 50))
		case 1:
			// Swap the first half for rows of this generation, sharing the rest.
			k.PutRelation("r", &relation.Relation{Schema: schema,
				Tuples: append(slices.Clone(cur.Tuples[25:]), generation(gen, 25).Tuples...)})
		case 2:
			k.DropRelation("r")
			k.PutRelation("r", generation(gen, 50))
		}
	}
	close(stop)
	readers.Wait()
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

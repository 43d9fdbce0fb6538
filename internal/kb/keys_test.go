package kb

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"vada/internal/relation"
	"vada/internal/vadalog"
)

func testRelation(name string, rows ...[]any) *relation.Relation {
	r := relation.New(relation.NewSchema(name, "a", "b"))
	for _, row := range rows {
		r.Tuples = append(r.Tuples, relation.NewTuple(row...))
	}
	return r
}

// seeded is a knowledge base with something of every kind in it.
func seeded() *KB {
	k := New()
	k.Assert("p", tup("a", 1))
	k.Assert("p", tup("b", 2))
	k.Assert("q", tup("x"))
	k.PutRelation("src_one", testRelation("one", []any{"r", 1}, []any{"s", 2}))
	k.PutRelation("res_m", testRelation("m", []any{"t", 3}))
	return k
}

func keyStrings(keys []Key) []string {
	out := make([]string, len(keys))
	for i, key := range keys {
		out[i] = key.String()
	}
	return out
}

// TestReadsRecordTheirKey is the read half of the contract: every read
// method, and the Vadalog engine reading the KB as its EDB, records exactly
// the key it depends on — present or absent.
func TestReadsRecordTheirKey(t *testing.T) {
	eng := vadalog.NewEngine()
	prog, err := vadalog.Parse("r(X) :- p(X, N), not q(X).")
	if err != nil {
		t.Fatal(err)
	}
	query, err := vadalog.ParseQuery("?- r(X), ghost(X).")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		read func(k *KB)
		want []string
	}{
		{"Has", func(k *KB) { k.Has("p", tup("a", 1)) }, []string{"facts p"}},
		{"Has absent predicate", func(k *KB) { k.Has("ghost", tup(1)) }, []string{"facts ghost"}},
		{"Count", func(k *KB) { k.Count("q") }, []string{"facts q"}},
		{"Facts", func(k *KB) { k.Facts("p") }, []string{"facts p"}},
		{"RetractWhere", func(k *KB) { k.RetractWhere("p", func(relation.Tuple) bool { return false }) }, []string{"facts p"}},
		{"RetractWhere absent predicate", func(k *KB) { k.RetractWhere("ghost", func(relation.Tuple) bool { return true }) }, []string{"facts ghost"}},
		{"Relation", func(k *KB) { k.Relation("src_one") }, []string{"relation src_one"}},
		{"Relation absent", func(k *KB) { k.Relation("src_two") }, []string{"relation src_two"}},
		{"RelationCardinality", func(k *KB) { k.RelationCardinality("res_m") }, []string{"relation res_m"}},
		{"HasRelation", func(k *KB) { k.HasRelation("result") }, []string{"relation names result*"}},
		{"RelationNames", func(k *KB) { k.RelationNames("src_") }, []string{"relation names src_*"}},
		{"RelationNames all", func(k *KB) { k.RelationNames("") }, []string{"relation names *"}},
		{"Snapshot", func(k *KB) { k.Snapshot() }, []string{"everything"}},
		{"Stats", func(k *KB) { _ = k.String() }, []string{"everything"}},
		{"WriteSnapshot", func(k *KB) { _ = k.WriteSnapshot(&bytes.Buffer{}) }, []string{"everything"}},
		{"Value", func(k *KB) { k.Value("cell") }, []string{"external cell"}},
		{"Vadalog query", func(k *KB) {
			if _, err := eng.AskParsed(prog, query, k); err != nil {
				t.Fatal(err)
			}
			// r too: the engine seeds every predicate a program mentions from
			// the EDB, derived ones included.
		}, []string{"facts ghost", "facts p", "facts q", "facts r"}},
		{"writes are not reads", func(k *KB) {
			k.Assert("p", tup("c", 3))
			k.Retract("q", tup("x"))
			k.PutRelation("res_m", testRelation("m"))
			k.DropRelation("src_one")
			k.PutValue("cell", 1)
		}, []string{}},
	}
	for _, c := range cases {
		rec := seeded().Recording()
		c.read(rec)
		keys, _ := rec.Reads()
		if got := keyStrings(keys); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s recorded %q, want %q", c.name, got, c.want)
		}
	}

	// Only reads made through the recording handle are recorded; both
	// handles see the same knowledge base.
	k := seeded()
	rec := k.Recording()
	k.Facts("p")
	rec.Facts("q")
	rec.Assert("via-handle", tup(1))
	if keys, _ := rec.Reads(); !reflect.DeepEqual(keyStrings(keys), []string{"facts q"}) {
		t.Errorf("handle recorded %v", keys)
	}
	if keys, _ := k.Reads(); keys != nil {
		t.Errorf("a handle that does not record returned %v", keys)
	}
	if !k.Has("via-handle", tup(1)) || k.Version() != rec.Version() {
		t.Error("a write through the recording handle did not reach the knowledge base")
	}
}

// movedBy returns the keys whose clock op advanced, rendered and sorted.
func movedBy(k *KB, op func()) []string {
	before := map[Key]uint64{}
	for key, at := range k.moved {
		before[key] = at
	}
	op()
	var out []string
	for key, at := range k.moved {
		if at != before[key] {
			out = append(out, key.String())
		}
	}
	sort.Strings(out)
	return out
}

// TestWritesMoveExactlyTheirKeys is the write half: every mutation bumps the
// keys it changed and no others, and a write that changes nothing bumps
// none.
func TestWritesMoveExactlyTheirKeys(t *testing.T) {
	other := New()
	other.Assert("p", tup("a", 1)) // already there
	other.Assert("p", tup("z", 26))
	other.Assert("fresh", tup(1))
	other.PutRelation("res_m", testRelation("m", []any{"u", 4}))
	other.PutRelation("dc_new", testRelation("new"))

	cases := []struct {
		name  string
		write func(k *KB)
		want  []string
	}{
		{"Assert new fact", func(k *KB) { k.Assert("p", tup("c", 3)) }, []string{"facts p"}},
		{"Assert first fact of a predicate", func(k *KB) { k.Assert("fresh", tup(1)) }, []string{"facts fresh"}},
		{"Assert duplicate", func(k *KB) { k.Assert("p", tup("a", 1)) }, nil},
		{"Retract", func(k *KB) { k.Retract("p", tup("a", 1)) }, []string{"facts p"}},
		{"Retract last fact of a predicate", func(k *KB) { k.Retract("q", tup("x")) }, []string{"facts q"}},
		{"Retract absent", func(k *KB) { k.Retract("p", tup("nope", 0)); k.Retract("ghost", tup(1)) }, nil},
		{"RetractPredicate", func(k *KB) { k.RetractPredicate("p") }, []string{"facts p"}},
		{"RetractPredicate absent", func(k *KB) { k.RetractPredicate("ghost") }, nil},
		{"RetractWhere", func(k *KB) {
			k.RetractWhere("p", func(t relation.Tuple) bool { return t[0].Str() == "b" })
		}, []string{"facts p"}},
		{"RetractWhere matching nothing", func(k *KB) {
			k.RetractWhere("p", func(relation.Tuple) bool { return false })
		}, nil},
		{"PutRelation replacing", func(k *KB) { k.PutRelation("res_m", testRelation("m")) }, []string{"relation res_m"}},
		{"PutRelation creating", func(k *KB) { k.PutRelation("result", testRelation("r")) }, []string{"relation names result*", "relation result"}},
		{"DropRelation", func(k *KB) { k.DropRelation("src_one") }, []string{"relation names src_one*", "relation src_one"}},
		{"DropRelation absent", func(k *KB) { k.DropRelation("ghost") }, nil},
		{"PutValue", func(k *KB) { k.PutValue("cell", 1) }, []string{"external cell"}},
		{"Merge", func(k *KB) { k.Merge(other) },
			[]string{"facts fresh", "facts p", "relation dc_new", "relation names dc_new*", "relation res_m"}},
	}
	for _, c := range cases {
		k := seeded()
		if got := movedBy(k, func() { c.write(k) }); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s moved %q, want %q", c.name, got, c.want)
		}
	}
}

// TestMovedSince ties the two halves together the way the orchestrator uses
// them: what a piece of code read has moved exactly when something wrote it
// after the code finished.
func TestMovedSince(t *testing.T) {
	k := seeded()
	rec := k.Recording()
	rec.Facts("p")
	rec.Relation("src_two") // absent
	rec.RelationNames("res_")
	rec.HasRelation("result")
	rec.Value("mine")
	rec.Assert("p", tup("own", 0)) // the reader's own write
	rec.PutValue("mine", 1)
	keys, at := rec.Reads()

	moved := func() bool { return k.MovedSince(keys, at) }
	if moved() {
		t.Fatal("nothing was written after the reads were taken")
	}
	for _, quiet := range []func(){
		func() { k.Assert("q", tup("y")) },                      // an unread predicate
		func() { k.Assert("p", tup("a", 1)) },                   // a no-op write
		func() { k.PutRelation("res_m", testRelation("m")) },    // rewrites a res_ relation: the names did not change
		func() { k.PutRelation("src_three", testRelation("")) }, // creates a relation under an unread prefix
		func() { k.PutValue("cell", 2) },
	} {
		quiet()
		if moved() {
			t.Fatal("a write to something unread moved the read set")
		}
	}
	for name, loud := range map[string]func(){
		"a fact of a read predicate":     func() { k.Retract("p", tup("b", 2)) },
		"the absent relation appearing":  func() { k.PutRelation("src_two", testRelation("two")) },
		"a relation created under res_":  func() { k.PutRelation("res_n", testRelation("n")) },
		"a relation dropped under res_":  func() { k.DropRelation("res_m") },
		"the relation HasRelation asked": func() { k.PutRelation("result", testRelation("r")) },
		"a value it loaded":              func() { k.PutValue("mine", 2) },
	} {
		_, since := k.Reads()
		loud()
		if !k.MovedSince(keys, since) {
			t.Errorf("%s did not move the read set", name)
		}
	}
	everything := []Key{{Kind: KeyAll}}
	_, since := k.Reads()
	if k.MovedSince(everything, since) {
		t.Fatal("everything moved with no write")
	}
	k.Assert("anything", tup(1))
	if !k.MovedSince(everything, since) {
		t.Fatal("a write did not move everything")
	}
	if k.MovedSince([]Key{FactsKey("never-written")}, 0) {
		t.Fatal("a key nothing ever wrote has not moved")
	}
}

// TestRecordingBesideConcurrentReaders records through a handle while other
// goroutines read and write the same knowledge base through another, the
// way HTTP handlers do beside a running transducer body: under -race this
// is the recorder's safety test, and the handle's set is exactly its own
// reads — what keeps step counts a function of the conversation.
func TestRecordingBesideConcurrentReaders(t *testing.T) {
	k := seeded()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k.Facts("q")
				k.Relation("res_m")
				k.RelationNames("")
				k.Stats()
				if g == 0 {
					k.Assert("w", tup(i))
					k.PutValue("cell", i)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		rec := k.Recording()
		pred := fmt.Sprintf("p%d", i)
		var body sync.WaitGroup // a body may fan out
		for j := 0; j < 2; j++ {
			body.Add(1)
			go func() { defer body.Done(); rec.Count(pred) }()
		}
		body.Wait()
		keys, at := rec.Reads()
		if len(keys) != 1 || keys[0] != FactsKey(pred) {
			t.Fatalf("handle recorded %v, want its own read of %s only", keys, pred)
		}
		k.MovedSince(keys, at)
	}
	close(stop)
	wg.Wait()
}

// TestValuesAreNotContent: a value is held as put and shared by every handle,
// and nothing that persists or versions the knowledge base knows it is there.
func TestValuesAreNotContent(t *testing.T) {
	k := seeded()
	var before bytes.Buffer
	if err := k.WriteSnapshot(&before); err != nil {
		t.Fatal(err)
	}
	version, digest := k.Version(), k.Digest()

	if k.Value("cell") != nil {
		t.Fatal("a value nothing put is nil")
	}
	v := []int{1, 2}
	k.Recording().PutValue("cell", v)
	if got, _ := k.Value("cell").([]int); &got[0] != &v[0] {
		t.Fatalf("Value returned %v, want the slice that was put, uncopied", got)
	}

	var after bytes.Buffer
	if err := k.WriteSnapshot(&after); err != nil {
		t.Fatal(err)
	}
	if k.Version() != version || !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("putting a value moved the version or the snapshot bytes")
	}
	if k.Digest() != digest {
		t.Fatal("putting a value moved the digest")
	}
	if k.Snapshot().Value("cell") != nil {
		t.Fatal("Snapshot copied a value")
	}
	into := New()
	into.Merge(k)
	if into.Value("cell") != nil {
		t.Fatal("Merge copied a value")
	}
}

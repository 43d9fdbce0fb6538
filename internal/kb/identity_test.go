package kb

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vada/internal/relation"
)

// referenceFactSet is the fact set as it was before facts had an identity of
// their own: positions found through a string key, facts in the knowledge
// base's storage order (appended, and the last one moved into a retracted
// one's place). Its key length-prefixes every cell's Value.Key: Tuple.Key
// alone gives two tuples one key (TestTupleIdentityIsNotKeyStrings).
// Test-only: the differential reference for factSet.
type referenceFactSet struct {
	keys   map[string]int
	tuples []relation.Tuple
}

func referenceKey(t relation.Tuple) string {
	var b strings.Builder
	for _, v := range t {
		k := v.Key()
		fmt.Fprintf(&b, "%d:%s", len(k), k)
	}
	return b.String()
}

func newReferenceFactSet() *referenceFactSet {
	return &referenceFactSet{keys: map[string]int{}}
}

func (fs *referenceFactSet) has(t relation.Tuple) bool {
	_, ok := fs.keys[referenceKey(t)]
	return ok
}

// add stores t itself, as Merge does; assert stores a copy.
func (fs *referenceFactSet) add(t relation.Tuple) bool {
	key := referenceKey(t)
	if _, dup := fs.keys[key]; dup {
		return false
	}
	fs.keys[key] = len(fs.tuples)
	fs.tuples = append(fs.tuples, t)
	return true
}

func (fs *referenceFactSet) assert(t relation.Tuple) bool { return !fs.has(t) && fs.add(t.Clone()) }

func (fs *referenceFactSet) retract(t relation.Tuple) bool {
	key := referenceKey(t)
	idx, ok := fs.keys[key]
	if !ok {
		return false
	}
	last := len(fs.tuples) - 1
	if idx != last {
		fs.tuples[idx] = fs.tuples[last]
		fs.keys[referenceKey(fs.tuples[idx])] = idx
	}
	fs.tuples = fs.tuples[:last]
	delete(fs.keys, key)
	return true
}

func (fs *referenceFactSet) clone() *referenceFactSet {
	out := newReferenceFactSet()
	for _, t := range fs.tuples {
		out.add(t)
	}
	return out
}

// identityPalette holds the values fact identity is easy to get wrong on.
var identityPalette = []relation.Value{
	relation.Int(0), relation.Int(2), relation.Float(2), relation.Float(0), relation.Float(math.Copysign(0, -1)),
	relation.Float(math.NaN()), relation.Float(math.Float64frombits(0x7ff8000000000001)),
	relation.String("a\x1f\x00Sb"), relation.String("c"), relation.String("a"), relation.String("b\x1f\x00Sc"),
	relation.String("\x00"), relation.Null(), relation.Bool(true),
}

// identical reports whether two tuples are the same and hold the same float
// bits too: which of two NaNs a set kept is part of its storage.
func identical(a, b relation.Tuple) bool {
	if !a.Same(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v.FloatVal()) != math.Float64bits(b[i].FloatVal()) {
			return false
		}
	}
	return true
}

// factSetScript plays fuzz bytes against a knowledge base and the reference:
// asserts, retracts and lookups on a live knowledge base and on a snapshot of
// it, new snapshots, and merges of the snapshot back into the live one. After
// every operation both hold the same facts in the same order.
func factSetScript(t *testing.T, script []byte) {
	preds := []string{"p", "q"}
	live, snap := New(), New()
	ref := map[*KB]map[string]*referenceFactSet{live: {}, snap: {}}
	set := func(k *KB, pred string) *referenceFactSet {
		if ref[k][pred] == nil {
			ref[k][pred] = newReferenceFactSet()
		}
		return ref[k][pred]
	}
	for len(script) >= 3 {
		op, pred := script[0], preds[script[0]>>4&1]
		tuple := relation.Tuple{identityPalette[int(script[1])%len(identityPalette)]}
		if script[1] >= 0x80 {
			tuple = append(tuple, identityPalette[int(script[2])%len(identityPalette)])
		}
		script = script[3:]
		k := live
		if op&0x20 != 0 {
			k = snap
		}
		var got, want bool
		switch op % 5 {
		case 0:
			got, want = k.Assert(pred, tuple), set(k, pred).assert(tuple)
		case 1:
			got, want = k.Retract(pred, tuple), set(k, pred).retract(tuple)
		case 2:
			got, want = k.Has(pred, tuple), set(k, pred).has(tuple)
		case 3:
			snap = live.Snapshot()
			ref[snap] = map[string]*referenceFactSet{}
			for _, p := range preds {
				ref[snap][p] = set(live, p).clone()
			}
		case 4:
			live.Merge(snap)
			for _, p := range preds {
				for _, t := range set(snap, p).tuples {
					if !set(live, p).has(t) {
						set(live, p).add(t)
					}
				}
			}
		}
		if got != want {
			t.Fatalf("op %d on %s%v: knowledge base says %v, the reference %v", op%5, pred, tuple, got, want)
		}
		for _, k := range []*KB{live, snap} {
			for _, p := range preds {
				if facts, want := k.Facts(p), set(k, p).tuples; !slices.EqualFunc(facts, want, identical) {
					t.Fatalf("after op %d on %s%v: facts of %s are %v, the reference's %v", op%5, pred, tuple, p, facts, want)
				}
			}
		}
	}
}

// FuzzFactSetDifferential holds the hashed fact set to the string-keyed
// reference over Int/Float numeric equality, both zeros, NaN payloads and
// strings holding Tuple.Key's separators: the same answers and the same Facts
// order, on a knowledge base and on the snapshots that share its index.
func FuzzFactSetDifferential(f *testing.F) {
	f.Add([]byte{0, 7, 8, 0, 0x89, 0x0a, 0x10, 0x89, 0x0a, 2, 0x89, 0x0a, 3, 0, 0, 1, 7, 0, 0x20, 9, 0, 4, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 2, 6, 0, 1, 1, 0, 2, 2, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 3, 0, 0, 1, 1, 0, 0x21, 2, 0, 0x20, 9, 0, 4, 0, 0, 1, 2, 0, 3, 0, 0})
	f.Fuzz(factSetScript)
}

// TestFactSetDifferential runs a fixed stretch of scripts outside the fuzzer.
func TestFactSetDifferential(t *testing.T) {
	script := make([]byte, 3000)
	x := uint32(1)
	for i := range script {
		x = x*1664525 + 1013904223
		script[i] = byte(x >> 24)
	}
	for start := 0; start < len(script); start += 300 {
		factSetScript(t, script[start:start+300])
	}
}

// TestTupleIdentityIsNotKeyStrings pins two tuples with one Tuple.Key as two
// facts, two distinct rows, and two rows whose order — and whose facts — a
// digest tells apart.
func TestTupleIdentityIsNotKeyStrings(t *testing.T) {
	a := relation.NewTuple("a\x1f\x00Sb", "c")
	b := relation.NewTuple("a", "b\x1f\x00Sc")
	if a.Key() != b.Key() {
		t.Fatal("the two tuples no longer share a key: pick another pair")
	}

	k := New()
	k.Assert("p", a)
	if !k.Assert("p", b) || k.Count("p") != 2 {
		t.Fatalf("asserting the second tuple: %d facts, want 2", k.Count("p"))
	}
	if !k.Retract("p", a) || k.Has("p", a) || !k.Has("p", b) {
		t.Fatalf("retracting one tuple took the other: %v", k.Facts("p"))
	}

	rel := &relation.Relation{Schema: relation.NewSchema("r", "x", "y"), Tuples: []relation.Tuple{a, b, a}}
	if d := rel.Distinct(); len(d.Tuples) != 2 || !d.Tuples[1].Same(b) {
		t.Fatalf("Distinct = %v, want %v", d.Tuples, []relation.Tuple{a, b})
	}

	rows := func(ts ...relation.Tuple) *relation.Relation {
		r := relation.New(relation.NewSchema("r", "x", "y"))
		for i := 0; i < 6; i++ {
			r.Tuples = append(r.Tuples, relation.NewTuple(fmt.Sprint(i), "z"))
		}
		r.Tuples = append(r.Tuples, ts...)
		return r
	}
	digest := func(r *relation.Relation, fact relation.Tuple) uint64 {
		k := New()
		k.PutRelation("r", r)
		k.Assert("p", fact)
		return k.Digest()
	}
	if digest(rows(a, b), a) == digest(rows(b, a), a) {
		t.Fatal("the digest does not tell the two row orders apart")
	}
	if digest(rows(a, b), a) == digest(rows(a, b), b) {
		t.Fatal("the digest does not tell the two facts apart")
	}
}

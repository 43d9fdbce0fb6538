package kb

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"vada/internal/relation"
)

// snapshotJSON is the knowledge-base snapshot as reflection sees it, over
// relation's own types.
type snapshotJSON struct {
	Version   uint64                        `json:"version"`
	Facts     map[string][]relation.Tuple   `json:"facts"`
	Relations map[string]*relation.Relation `json:"relations"`
}

// refWriteSnapshot is WriteSnapshot as it was before the hand-written
// encoder: the snapshotJSON layout through a json.Encoder, each predicate's
// facts sorted by Tuple.Key on every comparison. It is the differential
// reference wherever no two facts of a predicate share a key (ties it left
// in storage order).
func refWriteSnapshot(k *KB) ([]byte, error) {
	k.mu.RLock()
	snap := snapshotJSON{
		Version:   k.version,
		Facts:     map[string][]relation.Tuple{},
		Relations: map[string]*relation.Relation{},
	}
	for pred, fs := range k.facts {
		if len(fs.tuples) == 0 {
			continue
		}
		tuples := append([]relation.Tuple(nil), fs.tuples...)
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key() < tuples[j].Key() })
		snap.Facts[pred] = tuples
	}
	for name, rel := range k.relations {
		snap.Relations[name] = rel
	}
	k.mu.RUnlock()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(snap)
	return buf.Bytes(), err
}

// keysUnique reports whether no two facts of one predicate share a
// Tuple.Key, the condition under which refWriteSnapshot's order is defined.
func keysUnique(k *KB) bool {
	for _, fs := range k.facts {
		seen := map[string]bool{}
		for _, t := range fs.tuples {
			if seen[t.Key()] {
				return false
			}
			seen[t.Key()] = true
		}
	}
	return true
}

// encodeVals are the values the snapshot scripts draw from: the HTML
// characters, invalid UTF-8, U+2028, Tuple.Key's separators, both zeros,
// the float format cutoffs and NaN.
var encodeVals = []relation.Value{
	relation.Null(), relation.String(""), relation.String("<b>&amp;"), relation.String("\xff\xfe"),
	relation.String("line\u2028"), relation.String("a\x1f\x00Sb"), relation.String("b\x1f\x00Sc"),
	relation.String("a"), relation.String("c"), relation.Int(0), relation.Int(-7), relation.Int(1 << 40),
	relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(1e-7), relation.Float(1e21),
	relation.Float(2.5), relation.Float(math.NaN()), relation.Bool(true), relation.Bool(false),
}

var encodeNames = []string{"p", "q<&>", "r\u2029"}

// snapshotScript drives a knowledge base with the byte script and holds the
// snapshot's encoding to refWriteSnapshot.
func snapshotScript(t *testing.T, script []byte) {
	k := scriptKB(script)
	var snap bytes.Buffer
	gotErr := k.WriteSnapshot(&snap)
	want, wantErr := refWriteSnapshot(k)
	if !keysUnique(k) && gotErr == nil && wantErr == nil {
		return
	}
	sameEncoding(t, "snapshot", snap.Bytes(), gotErr, want, wantErr)
}

// scriptKB is the knowledge base the byte script makes, three bytes an op.
func scriptKB(script []byte) *KB {
	k := New()
	k.PutRelation("seed", rows(0, 3))
	for i := 0; i+2 < len(script); i += 3 {
		op, a, b := script[i], int(script[i+1]), int(script[i+2])
		name := encodeNames[a%len(encodeNames)]
		tuple := relation.Tuple{encodeVals[a%len(encodeVals)], encodeVals[b%len(encodeVals)]}
		switch op % 6 {
		case 0:
			k.Assert(name, tuple)
		case 1:
			k.Retract(name, tuple)
		case 2:
			k.RetractPredicate(name)
		case 3:
			k.PutRelation(name, rows(a, 1+b%4))
		case 4:
			k.DropRelation(name)
		case 5:
			// A re-put of a stored relation.
			k.PutRelation("seed", rows(a, b%5))
		}
	}
	return k
}

// rows is a relation of n rows drawn from encodeVals from offset a on.
func rows(a, n int) *relation.Relation {
	r := relation.New(relation.NewSchema("r", "x", "y"))
	for i := 0; i < n; i++ {
		r.Tuples = append(r.Tuples, relation.Tuple{
			encodeVals[(a+i)%len(encodeVals)], encodeVals[(a*7+i)%len(encodeVals)]})
	}
	return r
}

// sameEncoding fails unless both encodings succeed with equal bytes, or
// both fail on the same value with no JSON form.
func sameEncoding(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		var g, w *json.UnsupportedValueError
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Str != w.Str {
			t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// FuzzSnapshotJSON holds the hand-written snapshot encoder to the reflection
// encoding of the same knowledge-base writes.
func FuzzSnapshotJSON(f *testing.F) {
	for _, script := range snapshotScripts {
		f.Add(script)
	}
	f.Fuzz(snapshotScript)
}

// snapshotScripts seed FuzzSnapshotJSON and, through the snapshots they
// make, FuzzReadSnapshotDifferential.
var snapshotScripts = [][]byte{
	{0, 7, 8, 0, 2, 9, 3, 4, 2, 5, 1, 3, 1, 7, 8},
	{0, 5, 8, 0, 6, 7, 5, 2, 4, 4, 0, 0, 3, 13, 14, 5, 6, 1},
	{0, 17, 3, 3, 15, 16, 5, 3, 3, 2, 0, 0},
}

// TestSnapshotJSONScripts runs a fixed stretch of scripts outside the fuzzer.
func TestSnapshotJSONScripts(t *testing.T) {
	script := make([]byte, 3000)
	x := uint32(7)
	for i := range script {
		x = x*1664525 + 1013904223
		script[i] = byte(x >> 24)
	}
	for start := 0; start < len(script); start += 60 {
		snapshotScript(t, script[start:start+60])
	}
}

// TestSnapshotOrderIsHistoryFree: two facts that share a Tuple.Key are
// written in one order whichever was asserted first, so a live knowledge
// base and its replay write the same bytes.
func TestSnapshotOrderIsHistoryFree(t *testing.T) {
	a := relation.NewTuple("a\x1f\x00Sb", "c")
	b := relation.NewTuple("a", "b\x1f\x00Sc")
	if a.Key() != b.Key() {
		t.Fatal("the two tuples no longer share a key: pick another pair")
	}
	var snaps [2]bytes.Buffer
	for i, order := range [][]relation.Tuple{{a, b}, {b, a}} {
		k := New()
		for _, f := range order {
			k.Assert("p", f)
		}
		if err := k.WriteSnapshot(&snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(snaps[0].Bytes(), snaps[1].Bytes()) {
		t.Fatalf("assertion order reached the snapshot:\n%s\n%s", &snaps[0], &snaps[1])
	}
	if !strings.Contains(snaps[0].String(), `"p":[`) {
		t.Fatalf("snapshot lost the facts: %s", &snaps[0])
	}
}

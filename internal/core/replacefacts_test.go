package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vada/internal/kb"
	"vada/internal/relation"
)

// referenceReplaceFacts is replaceFacts as it was with string keys: the
// differential reference for the hashed diff. Tuple.Key is not injective for
// strings holding its separator, so the inputs it is compared on hold none.
func referenceReplaceFacts(k *kb.KB, pred string, next []relation.Tuple) (int, int) {
	current := k.Facts(pred)
	curSet := make(map[string]bool, len(current))
	for _, t := range current {
		curSet[t.Key()] = true
	}
	nextSet := make(map[string]bool, len(next))
	same := len(current) == len(next)
	for _, t := range next {
		key := t.Key()
		nextSet[key] = true
		if !curSet[key] {
			same = false
		}
	}
	if same {
		return 0, 0
	}
	retracted := 0
	for _, t := range current {
		if !nextSet[t.Key()] {
			if k.Retract(pred, t) {
				retracted++
			}
		}
	}
	asserted := 0
	for _, t := range next {
		if k.Assert(pred, t) {
			asserted++
		}
	}
	return asserted, retracted
}

// TestReplaceFactsDifferential replaces one predicate's facts round after
// round, with sets that repeat tuples, mix Int and Float, both zeros and NaNs,
// on two knowledge bases: one through replaceFacts, one through the
// reference. Each round must count the same, make the same number of writes
// (the version) and leave the facts in the same order.
func TestReplaceFactsDifferential(t *testing.T) {
	palette := []relation.Value{
		relation.Int(1), relation.Float(1), relation.Float(0), relation.Float(math.Copysign(0, -1)),
		relation.Float(math.NaN()), relation.String("a"), relation.String("b"), relation.Null(),
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := kb.New(), kb.New()
		for round := 0; round < 12; round++ {
			next := make([]relation.Tuple, r.Intn(7))
			for i := range next {
				next[i] = relation.Tuple{palette[r.Intn(len(palette))], palette[r.Intn(3)]}
			}
			switch cur := got.Facts("p"); {
			case round%4 == 3:
				next = cur // the same set again, in storage order
			case round%4 == 2 && len(cur) > 1:
				// As many tuples as there are facts, all of them facts, one
				// twice: the diff calls that the same set too.
				next = append(cur[:len(cur)-1:len(cur)-1], cur[0])
			}
			ga, gr := replaceFacts(got, "p", next)
			wa, wr := referenceReplaceFacts(want, "p", next)
			if ga != wa || gr != wr {
				t.Fatalf("seed %d round %d: replaceFacts = (+%d −%d), the reference (+%d −%d)", seed, round, ga, gr, wa, wr)
			}
			if !slices.EqualFunc(got.Facts("p"), want.Facts("p"), relation.Tuple.Same) || got.Version() != want.Version() {
				t.Fatalf("seed %d round %d: facts %v (v%d), the reference's %v (v%d)",
					seed, round, got.Facts("p"), got.Version(), want.Facts("p"), want.Version())
			}
		}
	}
}

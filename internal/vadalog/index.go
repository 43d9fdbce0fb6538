package vadalog

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"vada/internal/relation"
)

// tupleSet holds the facts of one predicate in insertion order. Insertion
// order is derivation order, which is part of the evaluator's contract, so
// every access path below walks tuples in that order.
//
// Two kinds of hash index hang off it, both built on first use and kept
// current by insert:
//
//   - all, over whole tuples, is the set-semantics table behind add and has.
//     Its identity is Tuple.Same, which tells 2 from 2.0 and 0 from -0, as
//     the knowledge base's facts do;
//   - idx, one per combination of argument positions an atom had bound when
//     it probed the set, answers "which tuples could join here". Candidates
//     are still matched argument by argument under Value.Equal.
type tupleSet struct {
	tuples []relation.Tuple
	all    *hashIndex
	idx    []*hashIndex
}

// hashIndex chains the positions of tuples whose key columns hash alike.
// Chains run in insertion order.
type hashIndex struct {
	mask  uint64 // bit c set: column c is part of the key; 0: the whole tuple
	cols  []int
	chain map[uint64]span
	next  []int32 // next[p]: the position after p in p's chain, -1 at its end
}

type span struct{ first, last int32 }

// first returns the first position chained under h, or -1.
func (ix *hashIndex) first(h uint64) int32 {
	if sp, ok := ix.chain[h]; ok {
		return sp.first
	}
	return -1
}

// link appends position len(ix.next) to the chain of h; linked=false leaves
// the position in no chain (a tuple too short to have the key columns).
func (ix *hashIndex) link(h uint64, linked bool) {
	p := int32(len(ix.next))
	ix.next = append(ix.next, -1)
	if !linked {
		return
	}
	sp, ok := ix.chain[h]
	if ok {
		ix.next[sp.last] = p
		sp.last = p
	} else {
		sp = span{p, p}
	}
	ix.chain[h] = sp
}

// hash returns the key hash of t under the index; ok=false when t lacks one
// of the key columns.
func (ix *hashIndex) hash(t relation.Tuple) (h uint64, ok bool) {
	if ix.mask == 0 {
		return t.Hash(), true
	}
	if len(t) <= ix.cols[len(ix.cols)-1] {
		return 0, false
	}
	for _, c := range ix.cols {
		h = mixHash(h, hashValue(t[c]))
	}
	return h, true
}

func (s *tupleSet) build(mask uint64, cols []int) *hashIndex {
	n := cap(s.tuples) // a set being seeded knows how many tuples are coming
	ix := &hashIndex{mask: mask, cols: cols, chain: make(map[uint64]span, n), next: make([]int32, 0, n)}
	for _, t := range s.tuples {
		ix.link(ix.hash(t))
	}
	return ix
}

// index returns the join index on cols (ascending; mask is their bit set),
// building it on the first probe.
func (s *tupleSet) index(mask uint64, cols []int) *hashIndex {
	for _, ix := range s.idx {
		if ix.mask == mask {
			return ix
		}
	}
	ix := s.build(mask, cols)
	s.idx = append(s.idx, ix)
	return ix
}

// find returns the position of the tuple that is t (Tuple.Same; h is
// t.Hash()), or -1.
func (s *tupleSet) find(t relation.Tuple, h uint64) int {
	if s.all == nil {
		s.all = s.build(0, nil)
	}
	for p := s.all.first(h); p >= 0; p = s.all.next[p] {
		if s.tuples[p].Same(t) {
			return int(p)
		}
	}
	return -1
}

// has reports whether the set holds a tuple with t's key.
func (s *tupleSet) has(t relation.Tuple) bool { return s.find(t, t.Hash()) >= 0 }

// insert appends t, which the caller knows to be new (h is t.Hash()), and
// links it into every index built so far.
func (s *tupleSet) insert(t relation.Tuple, h uint64) {
	if len(s.tuples) == cap(s.tuples) {
		// Double: append alone grows a large slice by a quarter, which copies
		// a recursive predicate five times over while it fills.
		s.tuples = slices.Grow(s.tuples, len(s.tuples)+4)
	}
	s.tuples = append(s.tuples, t)
	if s.all != nil {
		s.all.link(h, true)
	}
	for _, ix := range s.idx {
		ix.link(ix.hash(t))
	}
}

// add inserts t unless a tuple with its key is present; it reports whether
// the set grew. The set keeps t itself, not a copy.
func (s *tupleSet) add(t relation.Tuple) bool {
	h := t.Hash()
	if s.find(t, h) >= 0 {
		return false
	}
	s.insert(t, h)
	return true
}

// hashSeed is drawn once per process: hashes only pick chains, and chains are
// walked in insertion order, so no result depends on it.
var hashSeed = maphash.MakeSeed()

// hashValue hashes v so that values equal under Value.Equal hash alike, for
// the join indexes: numbers hash by their float64 value, with -0 folded into 0
// and every NaN into one.
func hashValue(v relation.Value) uint64 {
	switch v.Kind() {
	case relation.KindString:
		return maphash.String(hashSeed, v.Str())
	case relation.KindInt, relation.KindFloat:
		f, _ := v.AsFloat()
		switch {
		case f == 0:
			f = 0
		case f != f:
			f = math.NaN()
		}
		return mixHash(0x9e3779b97f4a7c15, math.Float64bits(f))
	case relation.KindBool:
		if v.BoolVal() {
			return 0xb5ad4eceda1ce2a9
		}
		return 0x6a09e667f3bcc909
	default:
		return 0x243f6a8885a308d3
	}
}

func mixHash(h, v uint64) uint64 {
	h = (bits.RotateLeft64(h, 23) ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

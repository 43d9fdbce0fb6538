package kb

import (
	"maps"
	"math"
	"slices"

	"vada/internal/relation"
)

// Digest is a 64-bit fingerprint of the knowledge base's content: its facts
// and relations, in sorted name order, without the version and without the
// values beside them. A predicate's facts are a set and digest alike in any
// storage order; a relation's rows digest in order. It is the same in every
// process — unlike Tuple.Hash, whose string hash is seeded per process, it
// mixes every value's own bits — so a digest recorded by one process can be
// checked by the next: a session's journal records one per run, and recovery
// compares it with the content the replay of the run re-derives.
func (k *KB) Digest() uint64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(Key{Kind: KeyAll})
	k.checkAllLocked()
	preds := make([]string, 0, len(k.facts))
	for pred, fs := range k.facts {
		if len(fs.tuples) > 0 {
			preds = append(preds, pred)
		}
	}
	slices.Sort(preds)
	h := mix(uint64(len(preds)))
	for _, pred := range preds {
		var set uint64
		for _, t := range k.facts[pred].tuples {
			set += digestTuple(0, t)
		}
		h = mix(digestString(h, pred) ^ set)
	}
	names := slices.Sorted(maps.Keys(k.relations))
	h = mix(h ^ uint64(len(names)))
	for _, name := range names {
		rel := k.relations[name]
		h = digestString(h, name)
		h = digestString(h, rel.Schema.Name)
		for _, a := range rel.Schema.Attrs {
			h = mix(digestString(h, a.Name) ^ uint64(a.Type))
		}
		h = mix(h ^ uint64(len(rel.Tuples)))
		for _, t := range rel.Tuples {
			h = digestTuple(h, t)
		}
	}
	return h
}

// SetVersion sets the version counter to v. It is for a restore that brings
// back the counter of a state it re-derived, whose own writes counted
// differently; whoever remembers versions of this knowledge base must forget
// them (core.Wrangler.RestoreVersion does both).
func (k *KB) SetVersion(v uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.version = v
}

// digestTuple folds t into h: its arity, then each value's kind and payload,
// floats by their bits with every NaN alike — consistent with Tuple.Same.
func digestTuple(h uint64, t relation.Tuple) uint64 {
	h = mix(h ^ uint64(len(t)))
	for _, v := range t {
		h = mix(h ^ uint64(v.Kind()))
		switch v.Kind() {
		case relation.KindString:
			h = digestString(h, v.Str())
		case relation.KindInt:
			h = mix(h ^ uint64(v.IntVal()))
		case relation.KindFloat:
			bits := math.Float64bits(v.FloatVal())
			if f := v.FloatVal(); f != f {
				bits = 0x7ff8000000000001
			}
			h = mix(h ^ bits)
		case relation.KindBool:
			if v.BoolVal() {
				h = mix(h ^ 1)
			}
		}
	}
	return h
}

// digestString folds s into h eight bytes at a time, its length first.
func digestString(h uint64, s string) uint64 {
	h = mix(h ^ uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h ^ (uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56))
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return mix(h ^ tail)
}

// mix is SplitMix64's finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

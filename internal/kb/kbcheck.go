//go:build kbcheck

package kb

import (
	"fmt"
	"hash/fnv"

	"vada/internal/relation"
)

// The kbcheck build tag turns the ownership contract of the package comment
// from a promise into a check. Sharing a frozen relation differs from handing
// out copies only if somebody writes through the shared one, so that is what
// is looked for: every relation is fingerprinted when it is put, every fact
// tuple is kept under the key it had when asserted, and reads, puts, patches,
// drops, cuts and snapshots verify what they touch.

// seals holds the fingerprint each stored relation had when it was put.
type seals struct{ sums map[string]uint64 }

func (s *seals) put(name string, r *relation.Relation) {
	if s.sums == nil {
		s.sums = map[string]uint64{}
	}
	s.sums[name] = fingerprint(r)
}

// check panics if r, the relation stored under name, is not as it was put.
func (s *seals) check(name string, r *relation.Relation) {
	if r == nil {
		return
	}
	if sum, ok := s.sums[name]; !ok || sum != fingerprint(r) {
		panic(fmt.Sprintf("kb: relation %q was written to after it was put in the knowledge base (kbcheck)", name))
	}
}

// fingerprint hashes a relation's schema and rows.
func fingerprint(r *relation.Relation) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(r.Schema.String()))
	for _, t := range r.Tuples {
		_, _ = h.Write([]byte(t.Key()))
		_, _ = h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// checkFacts panics if a tuple of pred no longer has the key it was stored
// under.
func checkFacts(pred string, fs *factSet) {
	for i, t := range fs.tuples {
		if at, ok := fs.keys[t.Key()]; !ok || at != i {
			panic(fmt.Sprintf("kb: a fact of %q was written to after it was asserted (kbcheck)", pred))
		}
	}
}

// checkAllLocked verifies every stored relation and fact. Callers hold k.mu.
func (k *KB) checkAllLocked() {
	for name, r := range k.relations {
		k.seals.check(name, r)
	}
	for pred, fs := range k.facts {
		checkFacts(pred, fs)
	}
}

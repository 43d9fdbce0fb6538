//go:build kbcheck

package kb

import (
	"fmt"

	"vada/internal/relation"
)

// The kbcheck build tag turns the ownership contract of the package comment
// from a promise into a check. Sharing a frozen relation differs from handing
// out copies only if somebody writes through the shared one, so that is what
// is looked for: every relation is fingerprinted when it is put, every fact
// tuple is indexed under the hash it had when asserted, and reads, puts,
// drops, digests and snapshots verify what they touch.

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
	sum := relation.Tuple{relation.String(r.Schema.String())}.Hash()
	for _, t := range r.Tuples {
		sum = sum*0x100000001b3 ^ t.Hash()
	}
	return sum
}

// checkFacts panics if a fact of pred is no longer found where it is stored:
// a write through a stored tuple changes its hash or its identity.
func checkFacts(pred string, fs *factSet) {
	for i, t := range fs.tuples {
		if fs.find(t, t.Hash()) != i {
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

//go:build !kbcheck

package kb

import "vada/internal/relation"

// seals is empty without the kbcheck build tag: nothing is fingerprinted and
// every check compiles to nothing. See kbcheck.go.
type seals struct{}

func (seals) put(string, *relation.Relation)   {}
func (seals) check(string, *relation.Relation) {}

func checkFacts(string, *factSet) {}

func (k *KB) checkAllLocked() {}

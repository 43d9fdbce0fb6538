package kb

import (
	"sort"
	"strings"
	"sync"
)

// KeyKind says what part of the knowledge base a Key names.
type KeyKind uint8

const (
	// KeyFacts is the facts of one predicate.
	KeyFacts KeyKind = iota + 1
	// KeyRelation is one named bulk relation: its presence, schema and rows.
	KeyRelation
	// KeyRelations is the set of relation names that start with Name — what
	// RelationNames(Name) lists and HasRelation(Name) looks in. It moves when
	// a relation with that prefix is created or dropped, not when one is
	// rewritten.
	KeyRelations
	// KeyAll is the knowledge base as a whole (Snapshot, WriteSnapshot,
	// Stats); it moves with every change.
	KeyAll
	// KeyExternal is a value components hand one another through the
	// knowledge base without it being part of the knowledge base's content:
	// PutValue stores it and moves the key, Value loads it and notes the
	// read, so orchestration sees one clock and one read log for everything a
	// transducer can read. External to what is persisted and versioned —
	// Snapshot, WriteSnapshot, Merge, Digest and Version ignore it.
	KeyExternal
)

// Key names one independently versioned part of the knowledge base: what a
// read depends on and what a write moves. Name is the predicate, relation,
// relation-name prefix or external name; KeyAll carries none.
type Key struct {
	Kind KeyKind
	Name string
}

// FactsKey is the key of a predicate's facts.
func FactsKey(pred string) Key { return Key{KeyFacts, pred} }

// RelationKey is the key of a named bulk relation.
func RelationKey(name string) Key { return Key{KeyRelation, name} }

// ExternalKey is the key of a value kept beside the knowledge base's content
// (see PutValue).
func ExternalKey(name string) Key { return Key{KeyExternal, name} }

// RelationsKey is the key of the set of relation names starting with prefix.
func RelationsKey(prefix string) Key { return Key{KeyRelations, prefix} }

// String renders the key for traces: "facts md_match", "relation result",
// "relation names src_*", "external core.cfds".
func (key Key) String() string {
	switch key.Kind {
	case KeyFacts:
		return "facts " + key.Name
	case KeyRelation:
		return "relation " + key.Name
	case KeyRelations:
		return "relation names " + key.Name + "*"
	case KeyAll:
		return "everything"
	case KeyExternal:
		return "external " + key.Name
	}
	return "?"
}

// readLog is the set of keys read through one recording handle. Readers
// hold only the read side of k.mu, and a body may read from several
// goroutines, so the set has its own lock.
type readLog struct {
	mu   sync.Mutex
	keys map[Key]struct{}
}

// noteLocked records a read of key if k is a recording handle. Callers hold
// k.mu (either side) around the read itself; the log needs only its own
// lock.
func (k *KB) noteLocked(key Key) {
	l := k.reads
	if l == nil {
		return
	}
	l.mu.Lock()
	l.keys[key] = struct{}{}
	l.mu.Unlock()
}

// bumpLocked advances the change clock and stamps key with it. Callers
// hold k.mu for writing and call it once per mutation that changed state.
func (k *KB) bumpLocked(key Key) {
	k.clock++
	k.moved[key] = k.clock
}

// bumpRelationLocked records a change to the named relation; nameSet says
// the relation was created or dropped, which moves every KeyRelations whose
// prefix the name starts with. Those are found when asked about
// (MovedSince), from the per-name clock kept under the full name here.
func (k *KB) bumpRelationLocked(name string, nameSet bool) {
	k.bumpLocked(RelationKey(name))
	if nameSet {
		k.moved[RelationsKey(name)] = k.clock
		k.named = k.clock
	}
}

// Recording returns a second handle on the same knowledge base that records
// the key of every read made through it. The orchestrator hands such a
// handle to a dependency evaluation or a transducer body to learn what that
// code actually reads; reads made through any other handle — an HTTP reader
// beside a running body — are not recorded, and writes through either are
// the same writes.
func (k *KB) Recording() *KB {
	return &KB{state: k.state, reads: &readLog{keys: map[Key]struct{}{}}}
}

// Reads returns the keys read through a recording handle so far, sorted by
// kind and name, with the change clock at this moment. Passing both to
// MovedSince later asks "has anything that code read changed since it
// finished?" — writes the recorded code made itself are before the returned
// clock and do not count. On a handle that does not record, the keys are
// nil.
func (k *KB) Reads() ([]Key, uint64) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	l := k.reads
	if l == nil {
		return nil, k.clock
	}
	l.mu.Lock()
	keys := make([]Key, 0, len(l.keys))
	for key := range l.keys {
		keys = append(keys, key)
	}
	l.mu.Unlock()
	SortKeys(keys)
	return keys, k.clock
}

// SortKeys orders keys by kind, then name.
func SortKeys(keys []Key) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		return keys[i].Name < keys[j].Name
	})
}

// MovedSince reports whether any of the keys changed after the change clock
// read since (as returned by Reads). A key nothing ever wrote has not moved.
func (k *KB) MovedSince(keys []Key, since uint64) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	for _, key := range keys {
		switch key.Kind {
		case KeyAll:
			if k.clock > since {
				return true
			}
		case KeyRelations:
			if k.named <= since {
				continue // no relation was created or dropped since
			}
			for other, at := range k.moved {
				if at > since && other.Kind == KeyRelations && strings.HasPrefix(other.Name, key.Name) {
					return true
				}
			}
		default:
			if k.moved[key] > since {
				return true
			}
		}
	}
	return false
}

// PutValue stores v under the external key name and moves that key. The
// knowledge base's content and Version do not move: a value lives for the
// process, beside the facts and relations. The stored value is v itself, not a
// copy, and readers get the same one — whoever puts a value must not mutate it
// afterwards (put a new one instead), unless it synchronises itself and is
// put again after every mutation so that its key moves.
func (k *KB) PutValue(name string, v any) {
	k.mu.Lock()
	k.values[name] = v
	k.bumpLocked(ExternalKey(name))
	k.mu.Unlock()
}

// Value returns what PutValue last stored under name, nil if nothing was. On
// a recording handle the key joins the handle's reads like any key read from
// the knowledge base itself.
func (k *KB) Value(name string) any {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(ExternalKey(name))
	return k.values[name]
}

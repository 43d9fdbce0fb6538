// Package kb implements the VADA knowledge base: the shared repository
// through which every transducer communicates (Figure 1 of the paper).
//
// The knowledge base stores two kinds of state:
//
//   - facts: predicate-named tuples with set semantics, used for metadata
//     (schemas, matches, mappings, quality metrics, feedback, user and data
//     context). Transducer input dependencies are Vadalog queries over
//     these facts. Predicate names carry a namespace prefix mirroring the
//     paper's partitioning of the knowledge base (§2): uc_ user context,
//     dc_ data context, md_ transducer metadata, fb_ feedback, src_ source
//     registration — underscore, not '/', so they stay valid Vadalog
//     identifiers.
//   - relations: bulk extensional data (source tables, reference tables,
//     wrangling results), stored as named relations. The paper keeps most
//     extensional data in external stores; here the KB holds the handles
//     and the data itself, which is equivalent at laptop scale.
//
// A fact's identity is Tuple.Same, found through Tuple.Hash: Int(2) and
// Float(2) are two facts, 0 and -0 too, and every NaN is one value. Tuple.Key
// only orders (the facts of a snapshot); it is no identity, since a string
// holding its separator can give two tuples one key.
//
// What is stored is shared, not copied: a relation put in the knowledge base,
// every tuple in it, and every fact tuple are frozen from then on. PutRelation
// takes ownership of the relation it is given; Relation, Facts and Snapshot
// hand out the stored relations and tuples themselves; and
// nobody — neither the code that put them nor the code that read them —
// writes to one afterwards. To change a relation, build a new one (sharing
// the rows that stay: Relation.Shallow, Tuple.With) and put that. The
// compiler cannot hold anyone to this, so the kbcheck build tag does: under
// it the knowledge base fingerprints everything at put time and verifies the
// fingerprints on every read, put and snapshot, panicking with the name
// of the relation or predicate that was written through (go test -tags
// kbcheck; see kbcheck.go).
//
// Beside its content it carries values (PutValue/Value): in-process state
// components hand one another, stored under external keys so that it moves and
// is read on the same clock as facts and relations, and left out of everything
// persisted or versioned. They live for the process, so they are for what a
// restart can supply again. The standard suite (package core) keeps thirteen.
// Eight are inputs of someone, read through the handle a body is given: the
// registered sources, which restoring a session registers again, and seven
// values one transducer derives for another (name and instance matches, the 1:1
// correspondences, mappings, CFDs, range rules, quality reports), which the
// next run recomputes. Five are a body's own memory of what it last computed
// from (executions, assessments, the sources' join profile, the matchWriters'
// last publication, fusion's last run): loaded and stored through the
// wrangler's own handle, inputs of nobody, empty after a restart. The rule for
// such memory: remember inputs, never hash outputs — a stored relation is
// frozen, so identity says "same input" before the work; a hash says "same
// output" only after it.
// What cannot be supplied again — anything the API was handed — is content.
//
// The KB is safe for concurrent use and versions every change — as a whole
// (Version) and per key: each predicate's facts, each relation, and the sets
// of predicate and relation names carry the change clock of their last
// write, and a recording handle (Recording) collects which keys the code it
// is handed to reads. Together they let the orchestrator run a transducer only
// when something it read has moved — the mechanism behind the paper's "a
// transducer becomes available for execution when the data it needs is
// available in the knowledge base". See keys.go.
package kb

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"vada/internal/relation"
)

// KB is a handle on a knowledge base. The zero value is not usable; call
// New. Every handle on the same knowledge base (see Recording) shares all of
// its state; what a handle owns is only the log of the reads made through
// it.
type KB struct {
	*state
	// reads, on a handle made by Recording, collects the key of every read
	// made through the handle; nil on any other. See keys.go.
	reads *readLog
}

// state is what the handles on one knowledge base share.
type state struct {
	mu        sync.RWMutex
	facts     map[string]*factSet
	relations map[string]*relation.Relation
	version   uint64

	// values is what PutValue stores under external keys: handed from one
	// component to another within the process, never persisted. See keys.go.
	values map[string]any

	// clock ticks once per change (and per PutValue); moved[key] is the clock
	// of the key's last change; named is the clock of the last relation created
	// or dropped. Unlike version none is persisted: they order reads against
	// writes within one process. See keys.go.
	clock, named uint64
	moved        map[Key]uint64

	// seals holds the put-time fingerprints of the stored relations under
	// the kbcheck build tag, and nothing otherwise. See kbcheck.go.
	seals seals
}

// factSet is one predicate's facts in storage order, indexed by identity:
// index[h] lists the positions of the facts whose Tuple.Hash is h. A Snapshot
// shares the index's slices, so an update replaces a slice and never writes
// into one.
type factSet struct {
	index  map[uint64][]int
	tuples []relation.Tuple
}

// find returns the position of the fact that is t (h is t.Hash()), or -1.
func (fs *factSet) find(t relation.Tuple, h uint64) int {
	for _, i := range fs.index[h] {
		if fs.tuples[i].Same(t) {
			return i
		}
	}
	return -1
}

// add stores t, which is not a fact yet (h is t.Hash()), last.
func (fs *factSet) add(t relation.Tuple, h uint64) {
	fs.index[h] = append(slices.Clip(fs.index[h]), len(fs.tuples))
	fs.tuples = append(fs.tuples, t)
}

// remove takes out the fact at position i (h is its hash) and moves the last
// fact into its place.
func (fs *factSet) remove(i int, h uint64) {
	if at := slices.DeleteFunc(slices.Clone(fs.index[h]), func(p int) bool { return p == i }); len(at) > 0 {
		fs.index[h] = at
	} else {
		delete(fs.index, h)
	}
	last := len(fs.tuples) - 1
	if i != last {
		moved := fs.tuples[last]
		mh := moved.Hash()
		at := slices.Clone(fs.index[mh])
		at[slices.Index(at, last)] = i
		fs.index[mh] = at
		fs.tuples[i] = moved
	}
	fs.tuples = fs.tuples[:last]
}

// New creates an empty knowledge base.
func New() *KB {
	return &KB{state: &state{
		facts:     make(map[string]*factSet),
		relations: make(map[string]*relation.Relation),
		values:    make(map[string]any),
		moved:     make(map[Key]uint64),
	}}
}

// Version returns the current version counter. It increases by one for every
// successful change, so orchestration can detect quiescence cheaply.
func (k *KB) Version() uint64 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.version
}

// Assert adds a fact. It returns true if the fact was new. The tuple stays
// the caller's: what is stored (and logged) is one copy of it.
func (k *KB) Assert(pred string, t relation.Tuple) bool {
	k.mu.Lock()
	added := k.insertLocked(pred, t, false)
	k.mu.Unlock()
	return added
}

// insertLocked stores t as a fact of pred unless it is one already, and
// reports whether it did. It stores a copy of t, or, when the caller owns t
// and hands it over, t itself.
func (k *KB) insertLocked(pred string, t relation.Tuple, handOver bool) bool {
	fs, ok := k.facts[pred]
	if !ok {
		fs = &factSet{index: make(map[uint64][]int)}
		k.facts[pred] = fs
	}
	h := t.Hash()
	if fs.find(t, h) >= 0 {
		return false
	}
	if !handOver {
		t = t.Clone()
	}
	fs.add(t, h)
	k.version++
	k.bumpLocked(FactsKey(pred))
	return true
}

// Retract removes a fact. It returns true if the fact was present.
func (k *KB) Retract(pred string, t relation.Tuple) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	fs, ok := k.facts[pred]
	if !ok {
		return false
	}
	h := t.Hash()
	idx := fs.find(t, h)
	if idx < 0 {
		return false
	}
	fs.remove(idx, h)
	k.version++
	k.bumpLocked(FactsKey(pred))
	return true
}

// RetractPredicate removes every fact of a predicate, returning the count.
func (k *KB) RetractPredicate(pred string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	fs, ok := k.facts[pred]
	if !ok || len(fs.tuples) == 0 {
		return 0
	}
	n := len(fs.tuples)
	delete(k.facts, pred)
	k.version++
	k.bumpLocked(FactsKey(pred))
	return n
}

// RetractWhere removes facts of pred for which the predicate function holds,
// returning the count removed.
func (k *KB) RetractWhere(pred string, match func(relation.Tuple) bool) int {
	k.mu.Lock()
	k.noteLocked(FactsKey(pred))
	fs, ok := k.facts[pred]
	if !ok {
		k.mu.Unlock()
		return 0
	}
	checkFacts(pred, fs)
	var doomed []relation.Tuple
	for _, t := range fs.tuples {
		if match(t) {
			doomed = append(doomed, t)
		}
	}
	k.mu.Unlock()
	n := 0
	for _, t := range doomed {
		if k.Retract(pred, t) {
			n++
		}
	}
	return n
}

// Has reports whether the exact fact is present.
func (k *KB) Has(pred string, t relation.Tuple) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(FactsKey(pred))
	fs, ok := k.facts[pred]
	if !ok {
		return false
	}
	return fs.find(t, t.Hash()) >= 0
}

// Count returns the number of facts for a predicate.
func (k *KB) Count(pred string) int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(FactsKey(pred))
	fs, ok := k.facts[pred]
	if !ok {
		return 0
	}
	return len(fs.tuples)
}

// Facts returns all tuples of a predicate. The slice is the caller's, to
// sort or cut as it likes; the tuples in it are the stored ones, not to be
// written to.
func (k *KB) Facts(pred string) []relation.Tuple {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(FactsKey(pred))
	fs, ok := k.facts[pred]
	if !ok {
		return nil
	}
	checkFacts(pred, fs)
	return slices.Clone(fs.tuples)
}

// PutRelation stores (or replaces) a named bulk relation. It takes ownership:
// r itself is stored and handed to every reader, so the caller must not write
// to it — its tuples included — once it is put. A caller that does not own
// what it holds puts a Clone.
func (k *KB) PutRelation(name string, r *relation.Relation) {
	k.mu.Lock()
	k.installRelationLocked(name, r)
	k.mu.Unlock()
}

// installRelationLocked makes r the relation stored under name, as a change:
// versioned and sealed.
func (k *KB) installRelationLocked(name string, r *relation.Relation) {
	old := k.relations[name]
	k.seals.check(name, old)
	k.relations[name] = r
	k.seals.put(name, r)
	k.version++
	k.bumpRelationLocked(name, old == nil)
}

// Relation returns a named bulk relation, or nil if absent: the stored one,
// shared with every other reader and never changed — a later put stores a
// new relation under the name and leaves this one as it was. Read
// it freely, for as long as you like; to change it, build a new relation.
func (k *KB) Relation(name string) *relation.Relation {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(RelationKey(name))
	r := k.relations[name]
	k.seals.check(name, r)
	return r
}

// RelationCardinality returns the tuple count of a named bulk relation (0 if
// absent).
func (k *KB) RelationCardinality(name string) int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(RelationKey(name))
	r, ok := k.relations[name]
	if !ok {
		return 0
	}
	return r.Cardinality()
}

// HasRelation reports whether a named bulk relation exists.
func (k *KB) HasRelation(name string) bool {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(RelationsKey(name))
	_, ok := k.relations[name]
	return ok
}

// DropRelation removes a named bulk relation, reporting whether it existed.
func (k *KB) DropRelation(name string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	r, ok := k.relations[name]
	if !ok {
		return false
	}
	k.seals.check(name, r)
	delete(k.relations, name)
	k.version++
	k.bumpRelationLocked(name, true)
	return true
}

// RelationNames lists stored bulk relations, sorted; if prefix is non-empty
// only names with that prefix are returned.
func (k *KB) RelationNames(prefix string) []string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(RelationsKey(prefix))
	var out []string
	for n := range k.relations {
		if prefix == "" || strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the knowledge base as it is now — facts, relations and
// version — as a knowledge base of its own: later writes to either do not
// show in the other. Only the bookkeeping is copied; the relations and fact
// tuples, frozen in both, are shared. Snapshots give transducer runs a
// consistent view and make experiments repeatable.
func (k *KB) Snapshot() *KB {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(Key{Kind: KeyAll})
	k.checkAllLocked()
	out := New()
	out.version = k.version
	for pred, fs := range k.facts {
		out.facts[pred] = &factSet{index: maps.Clone(fs.index), tuples: slices.Clone(fs.tuples)}
	}
	for name, r := range k.relations {
		out.relations[name] = r
		out.seals.put(name, r)
	}
	return out
}

// Stats summarises KB contents for traces and the web UI.
type Stats struct {
	// Version is the current KB version.
	Version uint64
	// FactPredicates is the number of non-empty fact predicates.
	FactPredicates int
	// Facts is the total number of stored facts.
	Facts int
	// Relations is the number of bulk relations.
	Relations int
	// Tuples is the total number of tuples across bulk relations.
	Tuples int
}

// Stats returns summary statistics.
func (k *KB) Stats() Stats {
	k.mu.RLock()
	defer k.mu.RUnlock()
	k.noteLocked(Key{Kind: KeyAll})
	s := Stats{Version: k.version}
	for _, fs := range k.facts {
		if len(fs.tuples) > 0 {
			s.FactPredicates++
			s.Facts += len(fs.tuples)
		}
	}
	s.Relations = len(k.relations)
	for _, r := range k.relations {
		s.Tuples += r.Cardinality()
	}
	return s
}

// String renders a compact description of the KB for traces.
func (k *KB) String() string {
	s := k.Stats()
	return fmt.Sprintf("kb{v%d: %d facts in %d predicates, %d relations / %d tuples}",
		s.Version, s.Facts, s.FactPredicates, s.Relations, s.Tuples)
}

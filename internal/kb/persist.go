package kb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"vada/internal/relation"
)

// ErrBadSnapshot reports a snapshot stream that could not be decoded —
// truncated, corrupted, or not a KB snapshot at all. Branch with errors.Is;
// the wrapped error carries the decoder detail.
var ErrBadSnapshot = errors.New("kb: bad snapshot")

// snapshotJSON is the wire form of a knowledge-base snapshot. The paper
// keeps most extensional data in external stores; WriteSnapshot/ReadSnapshot
// give sessions durable state (e.g. pausing a pay-as-you-go wrangle and
// resuming later).
type snapshotJSON struct {
	Version   uint64                        `json:"version"`
	Facts     map[string][]relation.Tuple   `json:"facts"`
	Relations map[string]*relation.Relation `json:"relations"`
}

// WriteSnapshot serialises the knowledge base (facts, relations, version)
// as JSON.
func (k *KB) WriteSnapshot(w io.Writer) error {
	k.mu.RLock()
	k.noteLocked(Key{Kind: KeyAll})
	k.checkAllLocked()
	snap := snapshotJSON{
		Version:   k.version,
		Facts:     map[string][]relation.Tuple{},
		Relations: map[string]*relation.Relation{},
	}
	for pred, fs := range k.facts {
		if len(fs.tuples) == 0 {
			continue
		}
		// Deterministic output order for diffs and tests. Only the order is
		// this snapshot's own: tuples and relations are the stored ones,
		// which no later write changes, so encoding them after the lock is
		// released still writes the state at this moment.
		tuples := slices.Clone(fs.tuples)
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key() < tuples[j].Key() })
		snap.Facts[pred] = tuples
	}
	for name, rel := range k.relations {
		snap.Relations[name] = rel
	}
	k.mu.RUnlock()

	enc := json.NewEncoder(w)
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("kb: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores a knowledge base from a snapshot written by
// WriteSnapshot. It returns a fresh KB.
// Malformed input fails with an error wrapping ErrBadSnapshot; the decoder
// never panics and allocates only in proportion to the bytes actually read.
func ReadSnapshot(r io.Reader) (*KB, error) {
	var snap snapshotJSON
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	k := New()
	for pred, tuples := range snap.Facts {
		if pred == "" {
			return nil, fmt.Errorf("%w: empty fact predicate", ErrBadSnapshot)
		}
		for _, t := range tuples {
			k.Assert(pred, t)
		}
	}
	for name, rel := range snap.Relations {
		if name == "" {
			return nil, fmt.Errorf("%w: empty relation name", ErrBadSnapshot)
		}
		if rel != nil {
			k.PutRelation(name, rel)
		}
	}
	// Restore the version counter so orchestration eligibility carries over
	// (it must be at least the number of changes we just replayed).
	k.mu.Lock()
	if snap.Version > k.version {
		k.version = snap.Version
	}
	k.mu.Unlock()
	return k, nil
}

// Merge folds another knowledge base — typically one decoded by
// ReadSnapshot — into k in place: facts are asserted (duplicates are
// no-ops), relations replace same-named ones wholesale (one k already holds
// row for row is a no-op too: the wrangler a restore rebuilds has set its
// target schema by the time the snapshot that carries it is merged), and k's
// version is raised to at least src's. What is merged is shared with src,
// frozen in both. Merging in place is the restore path of a Wrangler whose
// orchestrator is already wired to k, where swapping the KB pointer would
// sever it.
func (k *KB) Merge(src *KB) {
	src.mu.RLock()
	defer src.mu.RUnlock()
	src.checkAllLocked()
	k.mu.Lock()
	defer k.mu.Unlock()
	for pred, fs := range src.facts {
		dst, ok := k.facts[pred]
		if !ok {
			dst = &factSet{index: make(map[uint64][]int, len(fs.tuples))}
			k.facts[pred] = dst
		}
		for _, t := range fs.tuples {
			h := t.Hash()
			if dst.find(t, h) >= 0 {
				continue
			}
			dst.add(t, h)
			k.version++
			k.bumpLocked(FactsKey(pred))
			k.logLocked(DeltaOp{Kind: DeltaAssert, Name: pred, Tuple: t})
		}
	}
	for name, r := range src.relations {
		if old := k.relations[name]; old != nil && old.Identical(r) {
			continue
		}
		k.installRelationLocked(name, r)
	}
	if src.version > k.version {
		k.version = src.version
	}
}

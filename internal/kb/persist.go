package kb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"vada/internal/relation"
)

// ErrBadSnapshot reports a snapshot stream that could not be decoded —
// truncated, corrupted, or not a KB snapshot at all. Branch with errors.Is;
// the wrapped error carries the decoder detail.
var ErrBadSnapshot = errors.New("kb: bad snapshot")

// WriteSnapshot serialises the knowledge base (facts, relations, version)
// as one line of JSON, {"version":n,"facts":{pred:[tuple,…]},
// "relations":{name:relation}}; with ReadSnapshot it gives sessions durable
// state, such as a pay-as-you-go wrangle paused and resumed later. It writes
// predicates and relation names in sorted order, and
// each predicate's facts sorted by tuple key, ties broken by their encoding,
// so equal contents write equal bytes whatever order they were asserted in.
// A fact with a NaN or infinite float fails it.
func (k *KB) WriteSnapshot(w io.Writer) error {
	// Only the fact lists are this snapshot's own: tuples and relations are
	// the stored ones, which no later write changes, so encoding them after
	// the lock is released still writes the state at this moment.
	k.mu.RLock()
	k.noteLocked(Key{Kind: KeyAll})
	k.checkAllLocked()
	version := k.version
	preds := make([]string, 0, len(k.facts))
	facts := make(map[string][]relation.Tuple, len(k.facts))
	for pred, fs := range k.facts {
		if len(fs.tuples) > 0 {
			preds = append(preds, pred)
			facts[pred] = slices.Clone(fs.tuples)
		}
	}
	names := make([]string, 0, len(k.relations))
	rels := make(map[string]*relation.Relation, len(k.relations))
	for name, rel := range k.relations {
		names = append(names, name)
		rels[name] = rel
	}
	k.mu.RUnlock()
	slices.Sort(preds)
	slices.Sort(names)

	b := append([]byte(nil), `{"version":`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, `,"facts":{`...)
	var enc []byte
	for i, pred := range preds {
		if i > 0 {
			b = append(b, ',')
		}
		b = relation.AppendJSONString(b, pred)
		b = append(b, ':')
		var err error
		if b, enc, err = appendFacts(b, enc[:0], facts[pred]); err != nil {
			return fmt.Errorf("kb: writing snapshot: %w", err)
		}
	}
	b = append(b, `},"relations":{`...)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = relation.AppendJSONString(b, name)
		b = append(b, ':')
		var err error
		if b, err = rels[name].AppendJSON(b); err != nil {
			return fmt.Errorf("kb: writing snapshot: %w", err)
		}
	}
	b = append(b, "}}\n"...)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("kb: writing snapshot: %w", err)
	}
	return nil
}

// appendFacts appends one predicate's facts to b as a JSON array in
// snapshot order. Each fact's key and encoding are computed once, the
// encodings into enc, which it returns for reuse.
func appendFacts(b, enc []byte, tuples []relation.Tuple) ([]byte, []byte, error) {
	type fact struct {
		key        string
		start, end int
	}
	fs := make([]fact, len(tuples))
	for i, t := range tuples {
		start := len(enc)
		var err error
		if enc, err = t.AppendJSON(enc); err != nil {
			return b, enc, err
		}
		fs[i] = fact{key: t.Key(), start: start, end: len(enc)}
	}
	// Tuple.Key is not injective, so equal keys are ordered by encoding:
	// storage order depends on the history of asserts and retracts.
	slices.SortFunc(fs, func(x, y fact) int {
		if c := strings.Compare(x.key, y.key); c != 0 {
			return c
		}
		return bytes.Compare(enc[x.start:x.end], enc[y.start:y.end])
	})
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, enc[f.start:f.end]...)
	}
	return append(b, ']'), enc, nil
}

// ReadSnapshot restores a knowledge base from a snapshot written by
// WriteSnapshot: one JSON object with the version, the facts by predicate and
// the relations by name, read in one pass by relation.Decoder. Its keys match
// case-insensitively and unknown ones are skipped, as encoding/json would;
// only white space may follow it. It returns a fresh KB.
// Malformed input fails with an error wrapping ErrBadSnapshot; the decoder
// never panics and allocates only in proportion to the bytes it is given.
func ReadSnapshot(data []byte) (*KB, error) {
	var (
		version   uint64
		facts     map[string][]relation.Tuple
		relations map[string]*relation.Relation
	)
	d := relation.NewDecoder(data)
	var err error
	if !d.Null() {
		err = d.Object(func(key string) error {
			switch {
			case strings.EqualFold(key, "version"):
				if d.Null() {
					return nil
				}
				var err error
				version, err = d.Uint64()
				return err
			case strings.EqualFold(key, "facts"):
				if d.Null() {
					facts = nil
					return nil
				}
				if facts == nil {
					facts = map[string][]relation.Tuple{}
				}
				return d.Object(func(pred string) error {
					tuples, err := d.Tuples()
					facts[pred] = tuples
					return err
				})
			case strings.EqualFold(key, "relations"):
				if d.Null() {
					relations = nil
					return nil
				}
				if relations == nil {
					relations = map[string]*relation.Relation{}
				}
				return d.Object(func(name string) error {
					rel, err := d.Relation()
					relations[name] = rel
					return err
				})
			}
			return d.Skip()
		})
	}
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	k := New()
	k.mu.Lock()
	defer k.mu.Unlock()
	for pred, tuples := range facts {
		if pred == "" {
			return nil, fmt.Errorf("%w: empty fact predicate", ErrBadSnapshot)
		}
		for _, t := range tuples {
			if len(t) == 0 {
				t = nil // as Assert stores an empty fact
			}
			k.insertLocked(pred, t, true) // the decoder made t: nobody else holds it
		}
	}
	for name, rel := range relations {
		if name == "" {
			return nil, fmt.Errorf("%w: empty relation name", ErrBadSnapshot)
		}
		if rel != nil {
			k.installRelationLocked(name, rel)
		}
	}
	// Restore the version counter so orchestration eligibility carries over
	// (it must be at least the number of changes we just replayed).
	k.version = max(k.version, version)
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

package store

import (
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/relation"
	"vada/internal/session"
)

// This file is the reader of the journal layout older binaries wrote: a
// record per stage carrying the knowledge-base delta the stage produced, and
// a record per terminal run. It only reads. Recovery folds such a journal
// into its snapshot (fold) and writes a fresh snapshot at once, so a data
// directory is read this way at most once.

// StageRecord is an older binary's record of one completed stage: the event
// and the knowledge-base delta the stage produced.
type StageRecord struct {
	// Event is the stage event, Seq assigned.
	Event session.Event `json:"event"`
	// Delta is the knowledge-base mutation log of the stage.
	Delta *Delta `json:"delta,omitempty"`

	legacyStage
}

// legacyStage is what stage records of still older binaries carried: the
// feedback items the stage added (FeedbackAt the index of the first in the
// append-only store, so recovery can skip exactly the overlap with items a
// snapshot those binaries took mid-stage already held) and the change
// fingerprints after the stage, beside a delta that did not hold them.
// Recovery folds them into the legacy fields of Meta. Its fields are those of
// StageRecord on the wire.
type legacyStage struct {
	Feedback   []feedback.Item   `json:"feedback,omitempty"`
	FeedbackAt int               `json:"feedback_at,omitempty"`
	ExecHashes map[string]uint64 `json:"exec_hashes,omitempty"`
	FusedHash  uint64            `json:"fused_hash,omitempty"`
}

// DeltaKind names one knowledge-base mutation of a Delta.
type DeltaKind string

// The mutations a Delta records.
const (
	// DeltaAssert is one fact assertion.
	DeltaAssert DeltaKind = "assert"
	// DeltaRetract is one fact retraction.
	DeltaRetract DeltaKind = "retract"
	// DeltaRetractPredicate is a whole predicate being dropped.
	DeltaRetractPredicate DeltaKind = "retract-pred"
	// DeltaPutRelation is a relation stored or replaced wholesale.
	DeltaPutRelation DeltaKind = "put-rel"
	// DeltaDropRelation is a relation being removed.
	DeltaDropRelation DeltaKind = "drop-rel"
	// DeltaPatchRelation is a relation replaced by a row diff: Removed
	// tuples are taken out (one occurrence each, matched by Tuple.Same), then
	// Added tuples are inserted at the final positions AddedAt names, or
	// appended when AddedAt is nil. Unlike the other kinds it is not
	// idempotent, so a record a snapshot already folds in is skipped whole.
	DeltaPatchRelation DeltaKind = "patch-rel"
)

// DeltaOp is one mutation of a Delta, in the order it was applied.
type DeltaOp struct {
	Kind     DeltaKind          `json:"kind"`
	Name     string             `json:"name"`
	Tuple    relation.Tuple     `json:"tuple,omitempty"`
	Relation *relation.Relation `json:"relation,omitempty"`
	Added    []relation.Tuple   `json:"added,omitempty"`
	AddedAt  []int              `json:"added_at,omitempty"`
	Removed  []relation.Tuple   `json:"removed,omitempty"`
}

// Delta is the mutation log of one stage between two knowledge-base
// versions.
type Delta struct {
	From uint64    `json:"from"`
	To   uint64    `json:"to"`
	Ops  []DeltaOp `json:"ops,omitempty"`
}

// apply replays the delta's mutations over k in order, through the
// knowledge base's write surface, and raises its version to at least d.To.
func (d *Delta) apply(k *kb.KB) {
	if d == nil {
		return
	}
	for _, op := range d.Ops {
		switch op.Kind {
		case DeltaAssert:
			k.Assert(op.Name, op.Tuple)
		case DeltaRetract:
			k.Retract(op.Name, op.Tuple)
		case DeltaRetractPredicate:
			k.RetractPredicate(op.Name)
		case DeltaPutRelation:
			if op.Relation != nil {
				k.PutRelation(op.Name, op.Relation)
			}
		case DeltaDropRelation:
			k.DropRelation(op.Name)
		case DeltaPatchRelation:
			patchRelationAt(k, op.Name, op.Added, op.AddedAt, op.Removed)
		}
	}
	if d.To > k.Version() {
		k.SetVersion(d.To)
	}
}

// patchRelationAt applies a row diff to the relation stored under name: one
// occurrence per removed tuple is taken out (matched by Tuple.Same, earliest
// first), then the added tuples are inserted at the final positions addedAt
// names — or appended when addedAt is nil. It reports whether the relation
// existed; patching an absent one is a no-op, and so is an empty patch.
// Malformed positions (short, out of range) degrade deterministically:
// unplaceable additions keep their order and flush to the tail. The patched
// relation is a new one, put in place of the old.
func patchRelationAt(k *kb.KB, name string, added []relation.Tuple, addedAt []int, removed []relation.Tuple) bool {
	r := k.Relation(name)
	if r == nil {
		return false
	}
	if len(added) == 0 && len(removed) == 0 {
		return true
	}
	surplus := relation.NewTally(len(removed))
	for _, t := range removed {
		*surplus.Add(t)++
	}
	kept := make([]relation.Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		if n := surplus.Find(t); n != nil && *n > 0 {
			*n--
			continue
		}
		kept = append(kept, t)
	}
	next := make([]relation.Tuple, 0, len(kept)+len(added))
	ai, ki := 0, 0
	for ai < len(added) || ki < len(kept) {
		if ai < len(added) &&
			(ki == len(kept) || (ai < len(addedAt) && addedAt[ai] <= len(next))) {
			next = append(next, added[ai])
			ai++
			continue
		}
		next = append(next, kept[ki])
		ki++
	}
	k.PutRelation(name, &relation.Relation{Schema: r.Schema, Tuples: next})
	return true
}

// foldStage folds an older binary's stage record into the snapshot it
// extends: its event, its delta, and the legacy fields of still older
// records. Callers have checked that the event extends the history.
func foldStage(snap *SessionSnapshot, rec *StageRecord) {
	snap.Events = append(snap.Events, rec.Event)
	rec.Delta.apply(snap.KB)
	// Legacy records carry the feedback items their stage added at their
	// store index, so the overlap with items a snapshot taken mid-stage by an
	// older binary already holds is skipped exactly.
	if n := len(rec.Feedback); n > 0 {
		if skip := max(len(snap.Meta.Feedback)-rec.FeedbackAt, 0); skip < n {
			snap.Meta.Feedback = append(snap.Meta.Feedback, rec.Feedback[skip:]...)
		}
	}
	if rec.ExecHashes != nil {
		snap.Meta.ExecHashes = rec.ExecHashes
	}
	if rec.FusedHash != 0 {
		snap.Meta.FusedHash = rec.FusedHash
	}
	if rec.Event.At.After(snap.Meta.LastActive) {
		snap.Meta.LastActive = rec.Event.At
	}
}

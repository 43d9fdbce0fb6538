package kb

import (
	"strconv"

	"vada/internal/relation"
)

// DeltaKind names one replayable knowledge-base mutation. The kinds cover
// the KB's whole write surface, so a Delta replayed over the KB state it
// was cut from reproduces the post-mutation state exactly.
type DeltaKind string

const (
	// DeltaAssert records one fact assertion.
	DeltaAssert DeltaKind = "assert"
	// DeltaRetract records one fact retraction.
	DeltaRetract DeltaKind = "retract"
	// DeltaRetractPredicate records a whole predicate being dropped.
	DeltaRetractPredicate DeltaKind = "retract-pred"
	// DeltaPutRelation records a bulk relation being stored or replaced
	// wholesale; the op carries the full relation. The log falls back to it
	// whenever a row diff is not provably lossless (see DeltaPatchRelation),
	// and journals written before row diffs carry nothing else.
	DeltaPutRelation DeltaKind = "put-rel"
	// DeltaDropRelation records a bulk relation being removed.
	DeltaDropRelation DeltaKind = "drop-rel"
	// DeltaPatchRelation records a bulk relation being replaced by a
	// row-level diff: Removed tuples are taken out of the stored relation
	// (one occurrence per listed tuple, matched by Tuple.Same), then Added
	// tuples are inserted — at the final positions AddedAt names, or
	// appended when AddedAt is nil — reproducing the replacement relation
	// exactly, order included. It is how the delta log records a put that
	// replaces an existing relation, but only when the reconstruction
	// provably equals the wholesale put it stands for; anything else falls
	// back to DeltaPutRelation. Unlike the other kinds a patch is not idempotent —
	// re-applying one duplicates its Added rows — so it relies on the
	// journal's replay gating (records a snapshot already folded in are
	// skipped whole, by sequence) rather than on op-level convergence.
	DeltaPatchRelation DeltaKind = "patch-rel"
)

// DeltaOp is one mutation of a Delta, in the order it was applied.
type DeltaOp struct {
	// Kind is the mutation type.
	Kind DeltaKind `json:"kind"`
	// Name is the fact predicate or relation name affected.
	Name string `json:"name"`
	// Tuple is the affected fact for DeltaAssert/DeltaRetract.
	Tuple relation.Tuple `json:"tuple,omitempty"`
	// Relation is the stored relation for DeltaPutRelation.
	Relation *relation.Relation `json:"relation,omitempty"`
	// Added and Removed are the row diff of DeltaPatchRelation: tuples
	// inserted into / removed from the named relation, in application
	// order. AddedAt, when present, is Added's insertion positions in the
	// patched relation (strictly increasing, one per added tuple); when
	// nil the added tuples are appended at the end.
	Added   []relation.Tuple `json:"added,omitempty"`
	AddedAt []int            `json:"added_at,omitempty"`
	Removed []relation.Tuple `json:"removed,omitempty"`
}

// Delta is the ordered mutation log between two knowledge-base versions —
// the O(changes) alternative to a full snapshot. Cut one with CutDelta and
// replay it with ApplyDelta; the journal subsystem serialises Deltas as the
// KB payload of its stage records.
type Delta struct {
	// From is the KB version the first op applied on top of.
	From uint64 `json:"from"`
	// To is the KB version after the last op.
	To uint64 `json:"to"`
	// Ops are the mutations, oldest first.
	Ops []DeltaOp `json:"ops,omitempty"`
}

// AppendJSON appends the delta's wire form — the journal's "delta" — to b,
// byte for byte what encoding/json writes for it. A value with no JSON form
// (a NaN or infinite float) fails the encoding.
func (d *Delta) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"from":`...)
	b = strconv.AppendUint(b, d.From, 10)
	b = append(b, `,"to":`...)
	b = strconv.AppendUint(b, d.To, 10)
	if len(d.Ops) > 0 {
		b = append(b, `,"ops":[`...)
		for i := range d.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = d.Ops[i].appendJSON(b); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// appendJSON appends one op, its empty fields left out.
func (op *DeltaOp) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"kind":`...)
	b = relation.AppendJSONString(b, string(op.Kind))
	b = append(b, `,"name":`...)
	b = relation.AppendJSONString(b, op.Name)
	var err error
	if len(op.Tuple) > 0 {
		b = append(b, `,"tuple":`...)
		if b, err = op.Tuple.AppendJSON(b); err != nil {
			return b, err
		}
	}
	if op.Relation != nil {
		b = append(b, `,"relation":`...)
		if b, err = op.Relation.AppendJSON(b); err != nil {
			return b, err
		}
	}
	if len(op.Added) > 0 {
		b = append(b, `,"added":`...)
		if b, err = relation.AppendTuplesJSON(b, op.Added); err != nil {
			return b, err
		}
	}
	if len(op.AddedAt) > 0 {
		b = append(b, `,"added_at":[`...)
		for i, at := range op.AddedAt {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(at), 10)
		}
		b = append(b, ']')
	}
	if len(op.Removed) > 0 {
		b = append(b, `,"removed":`...)
		if b, err = relation.AppendTuplesJSON(b, op.Removed); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// StartDeltaLog begins recording every subsequent mutation, synchronously
// and losslessly. The log grows until the next CutDelta, so callers cut at
// natural boundaries — once per completed wrangling stage, in the journal's
// case. Starting an already-started log resets it.
//
// Relation puts are logged as row diffs against the state the cut started
// from (see PutRelation), which trades op-level idempotency for O(changed
// rows) records: replay a cut delta at most once, over the state it was cut
// from. Journal recovery does so by skipping, by sequence, the records a
// snapshot already holds; the store takes snapshots only between two cuts.
func (k *KB) StartDeltaLog() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.deltaOn = true
	k.deltaFrom = k.version
	k.resetDeltaLocked()
}

// resetDeltaLocked empties the pending cut. Callers hold k.mu.
func (k *KB) resetDeltaLocked() {
	k.deltaOps = nil
	k.deltaRelOp = nil
	k.deltaRelBase = nil
}

// StopDeltaLog stops recording and discards any uncut ops.
func (k *KB) StopDeltaLog() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.deltaOn = false
	k.resetDeltaLocked()
}

// CutDelta returns the mutations recorded since StartDeltaLog (or the
// previous cut) and resets the log so the next cut starts from here. It
// returns nil when the log is not active. The relations and tuples in the ops
// are the stored ones, shared and frozen: encode them, do not edit them.
func (k *KB) CutDelta() *Delta {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.deltaOn {
		return nil
	}
	k.checkAllLocked()
	// Re-puts that landed back on their base state leave zero-Kind
	// tombstones (see logRelationPutLocked); filter them out of the cut.
	ops := k.deltaOps[:0]
	for _, op := range k.deltaOps {
		if op.Kind != "" {
			ops = append(ops, op)
		}
	}
	d := &Delta{From: k.deltaFrom, To: k.version, Ops: ops}
	k.deltaFrom = k.version
	k.resetDeltaLocked()
	return d
}

// ApplyDelta replays a delta's mutations in order through the public write
// surface (an active delta log records them) and raises the version to at least d.To, so a snapshot KB
// plus the journal's deltas converges on the live KB's version. Replay is
// convergent at the op level for all kinds except DeltaPatchRelation:
// asserting a fact already present and retracting one already gone are
// no-ops, and relation puts replace wholesale — so re-applying a prefix
// that a snapshot already folded in cannot corrupt state (the version
// counter may advance further; content converges). Patch ops are the
// exception: they must be applied exactly once over the state they were
// cut from, which the journal guarantees by skipping already-folded
// records whole (sequence-gated in recovery).
func (k *KB) ApplyDelta(d *Delta) {
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
			k.PatchRelationAt(op.Name, op.Added, op.AddedAt, op.Removed)
		}
	}
	k.mu.Lock()
	if d.To > k.version {
		k.version = d.To
	}
	k.mu.Unlock()
}

// logLocked appends one op to the active delta log. Callers hold k.mu and
// call it only after the mutation actually changed state (no-op writes are
// not logged, mirroring the version counter).
func (k *KB) logLocked(op DeltaOp) {
	if !k.deltaOn {
		return
	}
	k.deltaOps = append(k.deltaOps, op)
}

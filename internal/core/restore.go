package core

import (
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/mcda"
)

// Options returns a copy of the wrangler's effective configuration — the
// defaults with every functional option applied. Persistence uses it to
// carry the configuration across restarts; mutating the copy has no effect
// on the wrangler.
func (w *Wrangler) Options() Options { return w.opts }

// FeedbackItems returns a copy of every feedback item the wrangler holds.
// Persistence captures these in full: the KB's fb_item facts drop each
// item's observed value, and it is judging against the captured observation
// (not the evolving result) that keeps feedback assimilation a fixed point
// — restoring facts alone can leave orchestration oscillating between
// result candidates.
func (w *Wrangler) FeedbackItems() []feedback.Item { return cellFeedback.get(w.KB).Items() }

// ChangeFingerprints returns the wrangler's change-detection state: the
// per-mapping hash of the last executed output and the hash of the last
// fused union. These are what let mapping execution and fusion leave
// downstream repairs intact when their own inputs have not changed — so
// persistence must carry them, or the first post-restore run re-executes
// every mapping, overwrites the repaired result relations, and re-derives a
// differently-normalised result.
func (w *Wrangler) ChangeFingerprints() (exec map[string]uint64, fused uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	exec = make(map[string]uint64, len(w.lastExecHash))
	for id, h := range w.lastExecHash {
		exec[id] = h
	}
	return exec, w.lastFusedHash
}

// StartChangeLog begins lossless, synchronous recording of every
// knowledge-base mutation the wrangler makes — the delta-capture substrate
// of incremental durability. Call it once a restore (or creation) is
// complete so the log's baseline is the state a snapshot already holds;
// CutChangeLog then returns exactly what one wrangling stage changed.
func (w *Wrangler) StartChangeLog() { w.KB.StartDeltaLog() }

// CutChangeLog returns the knowledge-base mutations since the last cut (or
// StartChangeLog) and resets the log. It returns nil when no log is active.
// Cut once per completed stage: the returned delta is the O(changes)
// payload a journal appends instead of rewriting the whole knowledge base.
func (w *Wrangler) CutChangeLog() *kb.Delta { return w.KB.CutDelta() }

// RestoreFingerprints reinstates change-detection state captured by
// ChangeFingerprints on the pre-restart wrangler.
func (w *Wrangler) RestoreFingerprints(exec map[string]uint64, fused uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, h := range exec {
		w.lastExecHash[id] = h
	}
	if fused != 0 {
		w.lastFusedHash = fused
	}
}

// Rehydrate rebuilds, after a snapshot restore, the cells the knowledge base
// records as facts: feedback items from fb_item facts and the user-context
// priority model from uc_priority facts. (What the suite reads from facts
// directly — data-context registrations, per-source accuracy, matches — needs
// no rebuilding.)
//
// The knowledge base is the durable source of truth, so everything the KB
// records is recovered exactly; state that never reaches the KB — observed
// cell values attached to feedback items, the cells transducers derive — is
// re-derived by the next orchestration run instead. At rest the restored
// result is byte-identical; continued wrangling may recompute intermediate
// artefacts.
func (w *Wrangler) Rehydrate() {
	// Feedback: fb_item(street, postcode, attr, correct). Observed values
	// are not part of the fact, so rehydrated items carry the judgement
	// without the observation.
	if cellFeedback.get(w.KB).Len() == 0 {
		var items []feedback.Item
		for _, f := range w.KB.Facts(PredFeedback) {
			if len(f) != 4 {
				continue
			}
			items = append(items, feedback.Item{
				Street:   f[0].Str(),
				Postcode: f[1].Str(),
				Attr:     f[2].Str(),
				Correct:  f[3].BoolVal(),
			})
		}
		if len(items) > 0 {
			w.AddFeedback(items...)
		}
	}

	// User context: uc_priority(moreMetric, moreTarget, lessMetric,
	// lessTarget, strength) facts reassemble into a priority model.
	if cellUserModel.get(w.KB) == nil {
		m := mcda.NewModel()
		n := 0
		for _, f := range w.KB.Facts(PredPriority) {
			if len(f) != 5 {
				continue
			}
			more := mcda.Criterion{Metric: f[0].Str(), Target: f[1].Str()}
			less := mcda.Criterion{Metric: f[2].Str(), Target: f[3].Str()}
			if err := m.AddComparison(more, less, mcda.Strength(f[4].IntVal())); err != nil {
				continue // inconsistent restored pair: skip rather than fail the restore
			}
			n++
		}
		if n > 0 {
			cellUserModel.set(w.KB, m)
		}
	}
}

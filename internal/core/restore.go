package core

// The registered sources are all a restart has to supply: everything the API
// was handed since — target schema, data context, feedback, priorities — and
// everything the suite remembers of its own output is knowledge-base content,
// so a wrangler built the same way with the old knowledge base merged in
// (kb.Merge) is the old wrangler.

// RestoreVersion gives the knowledge base the version counter of the state a
// restore re-derived — a replay counts its writes differently from the
// process that recorded them — and makes the orchestrator forget what it knew
// by version, so the next run judges every transducer afresh.
func (w *Wrangler) RestoreVersion(v uint64) {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	w.KB.SetVersion(v)
	w.orch.ResetEligibility()
}

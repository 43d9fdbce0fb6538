package core

import "vada/internal/kb"

// The registered sources are all a restart has to supply: everything the API
// was handed since — target schema, data context, feedback, priorities — and
// everything the suite remembers of its own output is knowledge-base content,
// so a wrangler built the same way with the old knowledge base merged in
// (kb.Merge) is the old wrangler.

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

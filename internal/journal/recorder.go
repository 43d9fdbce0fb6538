package journal

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/trace"
)

// Recorder ties one live session to its journal writer: it turns completed
// stages into stage records (cutting the wrangler's knowledge-base change
// log) and terminal runs into run records, and it arbitrates the one genuine
// race of incremental durability — a compaction snapshot folding the journal
// away while a finishing stage is about to append to it.
//
// All mutation capture is serialised on the recorder's lock.
// RecordStageCommit is called from the session's stage-commit hook (under
// the session's run mutex), so a stage's delta is cut before the next stage
// can write; Compact holds the same lock across capture-snapshot → write →
// truncate, so an append can never land in the window where it would be
// truncated without being in the snapshot — it either precedes the capture
// (folded in, then truncated) or waits and lands in the fresh, empty journal.
type Recorder struct {
	w    *Writer
	sess *session.Session

	// mu orders appends against compaction; runSeen tracks the runs already
	// durable.
	mu      sync.Mutex
	runSeen map[string]bool

	// dirty reports that something was recorded — or failed to be — since
	// the snapshot under the journal was written; Compact clears it.
	dirty bool
}

// NewRecorder wires a recorder over an open journal writer and a live (or
// just-restored) session. knownRuns seeds the already-journaled set —
// the terminal runs the snapshot and the recovered journal records already
// carry. The wrangler's change log starts (or restarts) here: the baseline
// of the first cut is the state the snapshot+journal pair already holds. The
// log records relation puts as row diffs, which must be replayed at most
// once over the state they were cut from — Compose's sequence gating and
// Compact's SnapshotPending call are what guarantee that.
func NewRecorder(w *Writer, sess *session.Session, knownRuns []runs.Run) *Recorder {
	records, _ := w.Stats()
	r := &Recorder{
		w:       w,
		sess:    sess,
		runSeen: runIDs(knownRuns),
		dirty:   records > 0,
	}
	sess.Wrangler().StartChangeLog()
	return r
}

// RecordStageCommit appends the mutation record of one completed stage —
// the event and the knowledge-base delta since the previous record, which is
// everything the stage changed — in two phases: the record is captured and
// written under the recorder lock (so the delta cut stays race-free with the
// next stage), and the returned wait blocks until it is durable. Call it from the session's stage-commit hook:
// the hook holds the session's run mutex and invokes the wait only after
// releasing it (or, inside a plan, once for all the plan's stages), and its
// context carries the stage's trace span, under which the append is recorded
// as a `journal.append` child.
func (r *Recorder) RecordStageCommit(ctx context.Context, ev session.Event) (func() error, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dirty = true
	rec := &Record{At: ev.At, Stage: &StageRecord{
		Event: ev,
		Delta: r.sess.Wrangler().CutChangeLog(),
	}}

	span := trace.ChildFromContext(ctx, "journal.append",
		"kind", "stage", "session", r.sess.ID())
	wait, err := r.w.AppendCommit(rec)
	if err != nil {
		if span != nil {
			span.EndErr(err)
		}
		return nil, err
	}
	return func() error {
		err := wait()
		if span != nil {
			if err == nil {
				span.SetAttr("seq", fmt.Sprint(rec.Seq))
			}
			span.EndErr(err)
		}
		return err
	}, nil
}

// RecordRuns appends run records for every given run that is terminal and
// not yet journaled, returning the first append error. The caller passes
// the engine's ListTerminal snapshot; redundant calls are cheap no-ops.
func (r *Recorder) RecordRuns(ctx context.Context, list []runs.Run) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range list {
		run := list[i]
		if !run.State.Terminal() || r.runSeen[run.ID] {
			continue
		}
		r.dirty = true
		if err := r.appendTraced(ctx, &Record{At: time.Now(), Run: &run}, "run"); err != nil {
			return err
		}
		r.runSeen[run.ID] = true
	}
	return nil
}

// appendTraced performs one fsynced journal append under a
// `journal.append` span when ctx carries one — the persist leaf of a run's
// trace tree. Callers hold r.mu.
func (r *Recorder) appendTraced(ctx context.Context, rec *Record, kind string) error {
	span := trace.ChildFromContext(ctx, "journal.append",
		"kind", kind, "session", r.sess.ID())
	err := r.w.Append(rec)
	if span != nil {
		if err == nil {
			span.SetAttr("seq", fmt.Sprint(rec.Seq))
		}
		span.EndErr(err)
	}
	return err
}

// Compact folds the journal into a fresh full snapshot and truncates it:
// writeSnapshot must atomically persist the session's current full state
// (the server's capture+tmp+rename path). The recorder lock is held across
// both steps, so no record can be appended between the capture and the
// truncate and then lost; a crash between writeSnapshot succeeding and the
// truncate leaves already-folded records in the journal, which recovery
// skips by sequence and run ID.
//
// A stage may be running while the snapshot is captured. Its record, cut
// when it ends, lands in the fresh journal and is replayed over a snapshot
// that already holds part of its writes; SnapshotPending makes that cut
// replayable from there.
func (r *Recorder) Compact(writeSnapshot func() error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sess.Wrangler().KB.SnapshotPending()
	if err := writeSnapshot(); err != nil {
		return err
	}
	r.dirty = false
	return r.w.Reset()
}

// Current reports whether the snapshot under the journal already holds the
// session's whole durable state: nothing was recorded since it was written
// and every one of the given terminal runs is in it. The caller passes the
// engine's ListTerminal snapshot of a session that can no longer change.
func (r *Recorder) Current(terminal []runs.Run) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dirty {
		return false
	}
	for _, run := range terminal {
		if !r.runSeen[run.ID] {
			return false
		}
	}
	return true
}

// Stats reports the journal's record count and bytes since compaction.
func (r *Recorder) Stats() (records int, bytes int64) { return r.w.Stats() }

// Close stops the wrangler's change log and closes the journal file.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sess.Wrangler().KB.StopDeltaLog()
	return r.w.Close()
}

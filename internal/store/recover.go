package store

import (
	"os"
	"reflect"
	"strings"
)

// Recover is the boot path: every <id>.vsnap in the directory is decoded,
// its journal's valid prefix is replayed over it — a torn tail truncated,
// never fatal — and the composed state is published, its terminal runs
// handed to the run engine, and journals on from where it stopped. Archived
// sessions stay under closed/: one comes back live when its file is
// imported. A session whose snapshot fails to decode or to be admitted (the
// cap), or whose journal cannot be opened, is logged and not served, its
// files left as they are: one corrupt file must not take the service down,
// and a session that could not journal would lose every stage acknowledged
// from then on.
func (s *Store) Recover() {
	if s.dir == "" {
		return
	}
	n := 0
	for _, id := range s.snapshotIDs() {
		if s.recoverLive(id) {
			n++
		}
	}
	if n > 0 {
		s.Logger.Info("restored sessions", "count", n, "dir", s.dir)
	}
}

// snapshotIDs lists the session IDs that have a snapshot file in the
// directory.
func (s *Store) snapshotIDs() []string {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		s.Logger.Error("reading data directory", "dir", s.dir, "error", err)
		return nil
	}
	var ids []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), SnapshotExt); ok && !e.IsDir() {
			ids = append(ids, id)
		}
	}
	return ids
}

// readSnapshot decodes <dir>/<id>.vsnap, insisting that the envelope is the
// session the file name says it is: the ID is what later writes are named
// after.
func (s *Store) readSnapshot(id string) *SessionSnapshot {
	name := id + SnapshotExt
	f, err := os.Open(s.path(id, SnapshotExt))
	if err != nil {
		s.Logger.Error("opening snapshot", "file", name, "error", err)
		return nil
	}
	snap, err := ReadSessionSnapshot(f)
	f.Close()
	if err != nil {
		s.Logger.Warn("skipping snapshot", "file", name, "error", err)
		return nil
	}
	if snap.Meta.ID != id || !SafeID(id) {
		s.Logger.Warn("skipping snapshot: not the session its file name says", "file", name, "session", snap.Meta.ID)
		return nil
	}
	return snap
}

// recoverLive restores one live pair. Opening the journal replays it once:
// the records it returns are folded into the snapshot, and the journal is
// the one the session goes on appending to.
func (s *Store) recoverLive(id string) bool {
	snap := s.readSnapshot(id)
	if snap == nil {
		return false
	}
	j, res, err := openJournal(s.path(id, journalExt), s.Metrics)
	if err != nil {
		s.Logger.Error("not restoring session: its journal cannot be opened", "session", id, "error", err)
		return false
	}
	if res.Damaged {
		s.Logger.Warn("journal had a damaged tail", "file", id+journalExt, "recovered_records", len(res.Records))
	}
	fold(snap, res.Records)
	read := snap.Meta
	sess, err := restoreSession(snap, s.options(nil)...)
	var e *entry
	if err == nil {
		e, _, err = s.adopt(sess)
	}
	if err != nil {
		j.close()
		s.Logger.Error("restoring snapshot", "session", id, "error", err)
		return false
	}
	s.Engine.Adopt(snap.Runs)
	e.io.Lock()
	defer e.io.Unlock()
	e.start(j, snap.Runs)
	// A restore that had to rewrite what it read (the layout of an older
	// binary, moved into the knowledge base) leaves files that describe a
	// state the next record's delta does not start from: fold them now.
	if !reflect.DeepEqual(read, snap.Meta) {
		if err := s.compact(e); err != nil {
			s.Logger.Error("rewriting snapshot after restore", "session", id, "error", err)
		}
	}
	s.publish(e)
	s.Logger.Info("restored session", "session", id,
		"events", len(snap.Events), "runs", len(snap.Runs), "journal_records", len(res.Records))
	return true
}

// fold replays journal records over the snapshot they extend, in place.
// Because both halves are plain data, the restored session flows through
// exactly the same restoreSession machinery as a journal-less snapshot.
//
// Replay is convergent against a crash between a compaction's rename and its
// truncate, after which the journal still holds records the snapshot folds
// in. Stage records must extend the event history contiguously
// (Event.Seq == len(events)+1); earlier sequences are skipped as
// already-applied, later ones mean the journal does not belong to this
// snapshot generation and replay of the remainder stops rather than corrupt
// Seq continuity. Run records are deduplicated by run ID — terminal runs are
// immutable, so the first copy wins.
func fold(snap *SessionSnapshot, recs []Record) {
	seen := make(map[string]bool, len(snap.Runs))
	for _, r := range snap.Runs {
		seen[r.ID] = true
	}
	for _, rec := range recs {
		switch {
		case rec.Stage != nil:
			ev := rec.Stage.Event
			if ev.Seq <= len(snap.Events) {
				continue // already folded into the snapshot
			}
			if ev.Seq != len(snap.Events)+1 {
				return // sequence gap: stop at the last consistent state
			}
			snap.Events = append(snap.Events, ev)
			snap.KB.ApplyDelta(rec.Stage.Delta)
			// Legacy records carry the feedback items their stage added at
			// their store index, so the overlap with items a snapshot taken
			// mid-stage by an older binary already holds is skipped exactly.
			if n := len(rec.Stage.Feedback); n > 0 {
				if skip := max(len(snap.Meta.Feedback)-rec.Stage.FeedbackAt, 0); skip < n {
					snap.Meta.Feedback = append(snap.Meta.Feedback, rec.Stage.Feedback[skip:]...)
				}
			}
			if rec.Stage.ExecHashes != nil {
				snap.Meta.ExecHashes = rec.Stage.ExecHashes
			}
			if rec.Stage.FusedHash != 0 {
				snap.Meta.FusedHash = rec.Stage.FusedHash
			}
			if ev.At.After(snap.Meta.LastActive) {
				snap.Meta.LastActive = ev.At
			}
		case rec.Run != nil:
			r := *rec.Run
			if seen[r.ID] || !r.State.Terminal() {
				continue
			}
			seen[r.ID] = true
			snap.Runs = append(snap.Runs, r)
		}
	}
}

package store

import (
	"bytes"
	"os"
	"reflect"
	"strings"

	"vada/internal/journal"
	"vada/internal/persist"
	"vada/internal/session"
)

// Recover is the boot path: every <id>.vsnap in the directory is decoded,
// its journal's valid prefix (if a journal exists) is replayed over it — a
// torn tail truncated, never fatal — and the composed state is registered
// with the manager and the run engine and journals on from where it stopped.
// Archived sessions stay under closed/: one comes back live when its file is
// imported. opts are the options every session of the service gets. A file
// that fails to decode or register is logged and skipped; one corrupt file
// must not take the service down.
func (s *Store) Recover(opts ...session.Option) {
	if s.dir == "" {
		return
	}
	n := 0
	for _, id := range s.snapshotIDs() {
		if s.recoverLive(id, opts) {
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
func (s *Store) readSnapshot(id string) *persist.SessionSnapshot {
	name := id + SnapshotExt
	f, err := os.Open(s.path(id, SnapshotExt))
	if err != nil {
		s.Logger.Error("opening snapshot", "file", name, "error", err)
		return nil
	}
	snap, err := persist.ReadSessionSnapshot(f)
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

// recoverLive restores one live pair and reopens its journal for appending.
func (s *Store) recoverLive(id string, opts []session.Option) bool {
	snap := s.readSnapshot(id)
	if snap == nil {
		return false
	}
	// An unreadable journal (not one of ours, unknown version) is skipped
	// and the snapshot restores on its own.
	jname := id + journalExt
	replayed := 0
	if data, err := os.ReadFile(s.path(id, journalExt)); err == nil {
		res, err := journal.Replay(bytes.NewReader(data))
		if err != nil {
			s.Logger.Warn("skipping journal", "file", jname, "error", err)
		} else {
			snap = journal.Compose(snap, res.Records)
			replayed = len(res.Records)
			if res.Damaged {
				s.Logger.Warn("journal had a damaged tail", "file", jname, "recovered_records", replayed)
			}
		}
	}
	read := snap.Meta
	sess, err := persist.RestoreInto(s.Manager, s.Engine, snap, opts...)
	if err != nil {
		s.Logger.Error("restoring snapshot", "session", id, "error", err)
		return false
	}
	// Reopening truncates any damaged tail on disk; the recovered records
	// are already composed into the live session.
	w, _, err := journal.Open(s.path(id, journalExt))
	if err != nil {
		s.Logger.Error("opening journal", "session", id, "error", err)
	} else {
		w.SetMetrics(s.Metrics)
		s.mu.Lock()
		s.entries[id] = &entry{sess: sess, rec: journal.NewRecorder(w, sess, snap.Runs)}
		s.mu.Unlock()
		// A restore that had to rewrite what it read (the layout of an older
		// binary, moved into the knowledge base) leaves files that describe a
		// state the next record's delta does not start from: fold them now.
		if !reflect.DeepEqual(read, snap.Meta) {
			if err := s.Compact(id); err != nil {
				s.Logger.Error("rewriting snapshot after restore", "session", id, "error", err)
			}
		}
	}
	s.Logger.Info("restored session", "session", id,
		"events", len(snap.Events), "runs", len(snap.Runs), "journal_records", replayed)
	return true
}

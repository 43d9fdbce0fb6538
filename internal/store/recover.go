package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"

	"vada/internal/session"
)

// Recover is the boot path: every <id>.vsnap in the directory is decoded,
// the runs its journal's valid prefix records — a torn tail truncated, never
// fatal — are replayed over it through Stage.Apply and checked against their
// digests, and the session is published, its terminal runs handed to the run
// engine, and journals on from where it stopped. Archived sessions stay under
// closed/: one comes back live when its file is imported. A session whose
// snapshot fails to decode or to be admitted (the cap), whose journal cannot
// be opened, or whose replay diverges from what the journal recorded
// (ErrReplayDiverged) is logged and not served, its files left as they are:
// one corrupt file must not take the service down, and a session that could
// not journal would lose every stage acknowledged from then on.
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

// ErrReplayDiverged reports a session whose journal does not replay: a
// recorded run's requests fail to apply, or re-derive a knowledge base whose
// digest is not the one the run recorded.
var ErrReplayDiverged = errors.New("store: replay diverged from the journal")

// recoverLive restores one live pair. Opening the journal replays it once:
// its records are folded into the snapshot or replayed over the session
// restored from it, and the journal is the one the session goes on
// appending to.
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
	read := snap.Meta
	asked, legacy := fold(snap, res.Records)
	sess, err := restoreSession(snap, s.options(nil)...)
	if err == nil {
		if err = replay(sess, asked); err != nil {
			j.close()
			s.Logger.Error("not restoring session: its journal does not replay", "session", id, "error", err)
			return false
		}
	}
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
	for _, rec := range res.Records {
		if rec.Asked != nil {
			e.cost += recordCost(rec.Run)
		}
	}
	// A restore that had to rewrite what it read — an older binary's journal
	// or snapshot layout, moved into the knowledge base — folds it into a
	// snapshot of today's layout at once.
	if legacy || !reflect.DeepEqual(read, snap.Meta) {
		if err := s.compact(e); err != nil {
			s.Logger.Error("rewriting snapshot after restore", "session", id, "error", err)
		}
	}
	s.publish(e)
	s.Logger.Info("restored session", "session", id,
		"events", len(sess.Events()), "runs", len(snap.Runs), "journal_records", len(res.Records))
	return true
}

// fold composes the journal's records with the snapshot they extend: an
// older binary's stage records are folded into it in place (legacy.go),
// terminal runs join its runs, and the records of today's layout whose stages
// extend its history are returned, in order, for replay. legacy reports an
// older binary's record among them.
//
// Folding is convergent against a crash between a compaction's rename and
// its truncate, after which the journal still holds records the snapshot
// folds in: a record whose first event is already in the history is skipped
// whole, one that would leave a gap in it stops the fold rather than corrupt
// Seq continuity, and runs are deduplicated by ID — terminal runs are
// immutable, so the first copy wins. A run record without events changed no
// stage and is folded by its run alone.
func fold(snap *SessionSnapshot, recs []Record) (asked []*Asked, legacy bool) {
	seen := make(map[string]bool, len(snap.Runs))
	for _, r := range snap.Runs {
		seen[r.ID] = true
	}
	next := len(snap.Events) + 1
	for _, rec := range recs {
		var events []session.Event
		switch {
		case rec.Stage != nil:
			legacy = true
			events = []session.Event{rec.Stage.Event}
		case rec.Asked != nil:
			events = rec.Asked.Events
		default:
			legacy = true
		}
		if len(events) > 0 {
			if events[0].Seq < next {
				continue // already folded into the snapshot
			}
			if events[0].Seq != next {
				return asked, legacy // sequence gap: stop at the last consistent state
			}
			next += len(events)
			if rec.Stage != nil {
				foldStage(snap, rec.Stage)
			} else {
				asked = append(asked, rec.Asked)
			}
		}
		if r := rec.Run; r != nil && !seen[r.ID] && r.State.Terminal() {
			seen[r.ID] = true
			snap.Runs = append(snap.Runs, *r)
		}
	}
	return asked, legacy
}

// replay re-applies the recorded runs to a restored session nobody is served
// yet (Session.Replay) and checks each against the digest it recorded; the
// knowledge base then takes the version the last one recorded.
func replay(sess *session.Session, asked []*Asked) error {
	w := sess.Wrangler()
	for i, a := range asked {
		if err := sess.Replay(context.Background(), a.Requests, a.Events); err != nil {
			return fmt.Errorf("%w: run %d of %d: %w", ErrReplayDiverged, i+1, len(asked), err)
		}
		if got := w.KB.Digest(); got != a.Digest {
			return fmt.Errorf("%w: run %d of %d (stages %d–%d) left digest %016x, the journal recorded %016x",
				ErrReplayDiverged, i+1, len(asked), a.Events[0].Seq, a.Events[len(a.Events)-1].Seq, got, a.Digest)
		}
	}
	if n := len(asked); n > 0 {
		w.RestoreVersion(asked[n-1].Version)
	}
	return nil
}

// Package store owns a server's data directory and, with it, the durable
// state of every session: the two file formats, and the lifecycle that
// writes them — create, append, archive, recover.
//
// On disk a live session is a pair, an archived one a single file:
//
//	<dir>/<id>.vsnap          last full snapshot
//	<dir>/<id>.vjournal       what completed since: one record per stage, one per terminal run
//	<dir>/closed/<id>.vsnap   final snapshot of an explicitly deleted session
//
// Both files start with an 8-byte magic and a format-version byte, followed
// by frames — kind | u32 length | JSON payload | CRC-32(payload). A snapshot
// is a versioned envelope of four sections (identity, knowledge base, event
// history, terminal runs) closed by an end marker, so truncation, corruption
// and version skew are typed errors; golden fixtures under testdata pin both
// formats byte for byte. An archive is an export like any other: POSTing it
// to the server's import route brings the session back live, through Create.
//
// What each verb guarantees once it has returned without error:
//
//	Create   the baseline snapshot is fsynced and renamed into place over an
//	         empty journal — the session survives kill -9 from here on
//	Append   the stage's record is fsynced when the returned wait returns;
//	         CommitRun likewise for a terminal run's record
//	Archive  the pair is gone from <dir> and closed/ holds the final state
//	Recover  every pair is live again, snapshot composed with the journal's
//	         valid prefix
//
// Snapshots are taken between stages only, never during one. A journal past
// compactRecords records or compactBytes bytes is compacted by the stage
// that crossed the threshold, at its end, under the session's run mutex;
// idle eviction and shutdown compact a session once it has quiesced. Every
// snapshot — baseline, compaction, archive — reaches the directory through
// writeSnapshot: temp file, fsync, rename. A crash between any two
// file-system steps leaves either the state before the verb or the state
// after it, never a mixture: a journal without a snapshot was never
// acknowledged and is ignored, and a snapshot is only ever paired with a
// journal that was emptied first or whose records it already folds in
// (replay skips those by sequence and run ID).
//
// A Store opened over "" is ephemeral: every verb is a cheap no-op, so the
// service wires one either way.
package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vada/internal/metrics"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/trace"
)

// SnapshotExt is the file suffix of a snapshot envelope, on disk and in the
// download name of an exported session.
const SnapshotExt = ".vsnap"

const (
	journalExt = ".vjournal"
	closedDir  = "closed"
)

// A session's journal is compacted into a fresh snapshot once it holds
// compactRecords records or compactBytes bytes since the last compaction.
const (
	compactRecords = 512
	compactBytes   = 8 << 20
)

// ErrNotDurable reports that a session could not be written to the data
// directory. The caller must not acknowledge it as created.
var ErrNotDurable = errors.New("store: session is not durable")

// Deps is the rest of the service a Store works with: the manager whose
// sessions it persists, the engine whose terminal runs it snapshots, the
// registry its fsync and byte counters go to, and the operational logger.
type Deps struct {
	Manager *session.Manager
	Engine  *runs.Engine
	Metrics *metrics.Registry
	Logger  *slog.Logger
}

// Store is one data directory. Build it with Open, install Release as the
// manager's evict hook, Append as every session's stage-commit hook and
// CommitRun as the run engine's recorder, call Recover once before serving,
// and stop with Close.
type Store struct {
	dir string
	// maxRecords and maxBytes are compactRecords and compactBytes; tests
	// lower them.
	maxRecords int
	maxBytes   int64
	Deps

	// mu guards the entry table, each entry's archive field, and
	// lastSnapshot. It is never held across file I/O.
	mu           sync.Mutex
	entries      map[string]*entry
	lastSnapshot time.Time

	// onStep, set by tests only, is called after each file-system step of a
	// verb so a crash can be staged between any two of them.
	onStep func(step string)
}

// entry is everything the store knows about one durable session ID — the
// single place that decides whether a departing session is compacted (idle
// eviction, shutdown), archived (DELETE) or left alone (already gone, or
// superseded by a newer session under the same ID).
type entry struct {
	sess *session.Session

	// io orders every write to this session's files and guards the fields
	// below it: every writer locks it and then looks at j, so nothing is
	// written once the entry is finished, and a new session taking over the
	// ID waits the old one out.
	io sync.Mutex
	// j is the open journal: nil while Create is still writing and again
	// once the entry is finished.
	j *journal
	// runSeen holds the IDs of the terminal runs the files hold: those of the
	// snapshot and those journaled since.
	runSeen map[string]bool
	// dirty reports that something was recorded — or failed to be — since
	// the snapshot under the journal was written.
	dirty bool

	// archive marks a DELETE in progress; under Store.mu.
	archive bool
}

// Open prepares a store over dir, creating it if needed; "" is the
// ephemeral store.
func Open(dir string, deps Deps) (*Store, error) {
	s := &Store{dir: dir, maxRecords: compactRecords, maxBytes: compactBytes, Deps: deps,
		entries: map[string]*entry{}}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating data directory: %w", err)
	}
	return s, nil
}

// SafeID accepts session IDs that map onto a single path element: letters,
// digits, dot, dash and underscore, not starting with a dot. This is the
// guard between imported snapshot metadata and the filesystem.
func SafeID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Store) path(id, ext string) string { return filepath.Join(s.dir, id+ext) }

func (s *Store) step(name string) {
	if s.onStep != nil {
		s.onStep(name)
	}
}

// lookup returns the entry registered under id, or nil.
func (s *Store) lookup(id string) *entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[id]
}

// Create makes a new session — created or imported — durable
// before it is acknowledged: any stale journal under its ID is emptied
// first, the baseline snapshot is written second, and only then does the
// session start journaling. A failure wraps ErrNotDurable and leaves nothing
// registered; the caller closes the session instead of answering 201.
func (s *Store) Create(sess *session.Session) error {
	if s.dir == "" {
		return nil
	}
	id := sess.ID()
	if !SafeID(id) {
		return fmt.Errorf("%w: session ID %q is not filesystem-safe", ErrNotDurable, id)
	}
	e := &entry{sess: sess}
	e.io.Lock()
	defer e.io.Unlock()
	s.mu.Lock()
	old := s.entries[id]
	s.entries[id] = e
	s.mu.Unlock()
	if old != nil {
		// The ID's previous session is still being torn down (an import over
		// an ID mid-DELETE): wait its file operations out, then it has lost
		// the ID and its teardown leaves the new files alone.
		old.io.Lock()
		s.finish(old)
		old.io.Unlock()
	}
	if err := s.createFiles(e); err != nil {
		s.finish(e)
		return fmt.Errorf("%w: %w", ErrNotDurable, err)
	}
	return nil
}

// createFiles is Create's file-system half: journal emptied, then snapshot.
func (s *Store) createFiles(e *entry) error {
	j, stale, err := openJournal(s.path(e.sess.ID(), journalExt), s.Metrics)
	if err != nil {
		return err
	}
	if len(stale.Records) > 0 {
		if err := j.reset(); err != nil {
			j.close()
			return fmt.Errorf("resetting stale journal: %w", err)
		}
	}
	s.step("journal")
	snap := captureSession(e.sess, s.Engine)
	if err := s.writeSnapshot(snap); err != nil {
		j.close()
		return err
	}
	e.start(j, snap.Runs)
	return nil
}

// start makes the entry journal through j, over a snapshot that holds the
// given terminal runs. The wrangler's change log starts (or restarts) here:
// the baseline of the first cut is the state the snapshot and journal
// already hold. Callers hold e.io.
func (e *entry) start(j *journal, snapshotRuns []runs.Run) {
	e.j = j
	e.snapshotted(snapshotRuns)
	e.dirty = j.written.records > 0
	e.sess.Wrangler().StartChangeLog()
}

// snapshotted makes the runs the files hold exactly those of a snapshot
// over an empty journal. Callers hold e.io.
func (e *entry) snapshotted(snapshotRuns []runs.Run) {
	e.runSeen = make(map[string]bool, len(snapshotRuns))
	for _, r := range snapshotRuns {
		e.runSeen[r.ID] = true
	}
}

// writeSnapshot is the one way a snapshot reaches the data directory: the
// envelope goes to a temp file, is fsynced, and is renamed over
// <dir>/<id>.vsnap, so a reader sees the old snapshot or the new one whole.
// Callers hold the entry's io lock, which orders the writes of one session.
func (s *Store) writeSnapshot(snap *SessionSnapshot) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteSessionSnapshot(tmp, snap); err != nil {
		tmp.Close()
		return err
	}
	t0 := time.Now()
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	s.Metrics.Counter(metrics.Name("persist_fsync_total", "path", "snapshot")).Inc()
	s.Metrics.Histogram(metrics.Name("persist_fsync_seconds", "path", "snapshot"), nil).ObserveSince(t0)
	if info, err := tmp.Stat(); err == nil {
		s.Metrics.Counter("persist_snapshot_bytes_total").Add(info.Size())
	}
	s.Metrics.Counter("persist_snapshots_total").Inc()
	if err := tmp.Close(); err != nil {
		return err
	}
	s.step("snapshot-temp")
	if err := os.Rename(tmp.Name(), s.path(snap.Meta.ID, SnapshotExt)); err != nil {
		return err
	}
	s.step("snapshot")
	s.mu.Lock()
	s.lastSnapshot = time.Now()
	s.mu.Unlock()
	return nil
}

// finish ends an entry's life: it leaves the table (unless a newer session
// already took the ID), its change log stops, its journal is closed, and
// every writer that locks io afterwards finds j nil and declines. Callers
// hold e.io.
func (s *Store) finish(e *entry) {
	id := e.sess.ID()
	s.mu.Lock()
	if s.entries[id] == e {
		delete(s.entries, id)
	}
	s.mu.Unlock()
	if e.j == nil {
		return
	}
	e.sess.Wrangler().KB.StopDeltaLog()
	if err := e.j.close(); err != nil {
		s.Logger.Error("closing journal", "session", id, "error", err)
	}
	e.j = nil
}

// Append is the session stage-commit hook: one O(delta) journal record per
// completed stage, and the threshold compaction when that record crossed it.
// It runs under the session's run mutex, so the delta cut cannot race the
// next stage's writes and a compaction snapshot never lands mid-stage. The
// returned wait — invoked by the run engine with the rest of the run's, once
// the run's own record is written too — blocks until the record is fsynced.
// ctx carries the stage's trace span, making the append a `journal.append`
// child of it. A failure is logged, not fatal: the next compaction, evict or
// shutdown snapshot covers the stage.
func (s *Store) Append(ctx context.Context, sess *session.Session, ev session.Event) func() {
	id := sess.ID()
	e := s.lookup(id)
	if e == nil || e.sess != sess {
		return nil
	}
	e.io.Lock()
	defer e.io.Unlock()
	if e.j == nil {
		return nil
	}
	e.dirty = true
	rec := &Record{At: ev.At, Stage: &StageRecord{Event: ev, Delta: sess.Wrangler().CutChangeLog()}}
	span := trace.ChildFromContext(ctx, "journal.append", "kind", "stage", "session", id)
	wait, err := e.j.appendCommit(rec)
	if err != nil {
		span.EndErr(err)
		s.Logger.Error("journaling stage", "stage", ev.Stage, "session", id, "error", err)
		return nil
	}
	s.step("record")
	if records, bytes := e.j.written.records, e.j.written.bytes; records >= s.maxRecords || bytes >= s.maxBytes {
		if err := s.compact(e); err != nil {
			s.Logger.Error("compacting session", "session", id, "error", err)
		} else {
			s.Logger.Info("session compacted", "session", id,
				"journal_records", records, "journal_bytes", bytes)
		}
	}
	return func() {
		e.io.Lock()
		err := wait()
		e.io.Unlock()
		if err == nil {
			span.SetAttr("seq", fmt.Sprint(rec.Seq))
		}
		span.EndErr(err)
		if err != nil {
			s.Logger.Error("journaling stage", "stage", ev.Stage, "session", id, "error", err)
		}
		s.step("record-sync")
	}
}

// compact folds the journal into a fresh snapshot of the session and empties
// it. The snapshot holds every record written so far, so their waits resolve
// without an fsync. Callers hold e.io and the session is between stages:
// under its run mutex (Append), or quiesced (Release, Recover).
func (s *Store) compact(e *entry) error {
	snap := captureSession(e.sess, s.Engine)
	if err := s.writeSnapshot(snap); err != nil {
		return err
	}
	if err := e.j.reset(); err != nil {
		return err
	}
	s.Metrics.Counter("persist_compactions_total").Inc()
	s.step("truncate")
	e.snapshotted(snap.Runs)
	e.dirty = false
	return nil
}

// CommitRun is the run engine's recorder: it journals a terminal run the
// session's files do not hold yet, without waiting, and returns the wait that
// makes the record durable — the engine invokes it with the waits of the
// run's stages, so one fsync covers them all. A journal this record pushes
// past a threshold is compacted by the session's next stage. A failure is
// logged, not fatal: the next compaction, evict or shutdown snapshot covers
// the run.
func (s *Store) CommitRun(run runs.Run) func() {
	e := s.lookup(run.SessionID)
	if e == nil {
		return nil
	}
	e.io.Lock()
	defer e.io.Unlock()
	if e.j == nil || e.runSeen[run.ID] {
		return nil
	}
	e.dirty = true
	wait, err := e.j.appendCommit(&Record{At: time.Now(), Run: &run})
	if err != nil {
		s.Logger.Error("journaling run", "run", run.ID, "session", run.SessionID, "error", err)
		return nil
	}
	e.runSeen[run.ID] = true
	return func() {
		e.io.Lock()
		err := wait()
		e.io.Unlock()
		if err != nil {
			s.Logger.Error("journaling run", "run", run.ID, "session", run.SessionID, "error", err)
		}
	}
}

// Archive is DELETE: the session is closed through the manager — cancelling
// its runs — and its teardown (Release) moves the final snapshot under
// closed/ and removes the live pair, so the session no longer comes back at
// boot. Unknown IDs, a duplicate DELETE included, fail with
// session.ErrNotFound and touch nothing.
func (s *Store) Archive(id string) error {
	s.mu.Lock()
	if e := s.entries[id]; e != nil {
		e.archive = true
	}
	s.mu.Unlock()
	return s.Manager.Close(id)
}

// Release is the manager's evict hook, run once a session has left the
// manager and quiesced: a session marked by Archive is archived, any other
// (idle eviction, shutdown) is compacted so a restart replays nothing, and
// either way its journal is closed. A session that was never durable, or
// whose ID a newer session has taken over, is left alone.
func (s *Store) Release(sess *session.Session) {
	if s.dir == "" {
		return
	}
	id := sess.ID()
	s.Engine.WaitSession(id)
	e := s.lookup(id)
	if e == nil || e.sess != sess {
		return
	}
	e.io.Lock()
	defer e.io.Unlock()
	if e.j == nil {
		return
	}
	s.mu.Lock()
	archive := e.archive
	s.mu.Unlock()
	if archive {
		if err := s.archive(e); err != nil {
			s.Logger.Error("archiving session", "session", id, "error", err)
		} else {
			s.Logger.Info("session archived", "session", id, "dir", closedDir)
		}
	} else if err := s.compact(e); err != nil {
		s.Logger.Error("compacting session on evict", "session", id, "error", err)
	}
	s.finish(e)
}

// current reports whether the snapshot on disk already holds the session's
// whole durable state: nothing was recorded since it was written — a failed
// record included — and every terminal run is in it. Callers hold e.io.
func (s *Store) current(e *entry) bool {
	if e.dirty {
		return false
	}
	for _, run := range s.Engine.ListTerminal(e.sess.ID()) {
		if !e.runSeen[run.ID] {
			return false
		}
	}
	return true
}

// archive moves the session's final snapshot under closed/ and removes its
// journal. The snapshot on disk is rewritten first unless it is already the
// final state (current): the session imported and deleted untouched. The
// journal is not truncated on the way: its records are folded into the
// snapshot, and it is deleted two steps later. Callers hold e.io, and the
// session has quiesced, so nothing appends meanwhile.
func (s *Store) archive(e *entry) error {
	id := e.sess.ID()
	if !s.current(e) {
		if err := s.writeSnapshot(captureSession(e.sess, s.Engine)); err != nil {
			return err
		}
	}
	closed := filepath.Join(s.dir, closedDir)
	if err := os.MkdirAll(closed, 0o755); err != nil {
		return err
	}
	if err := os.Rename(s.path(id, SnapshotExt), filepath.Join(closed, id+SnapshotExt)); err != nil {
		return err
	}
	s.step("archive")
	if err := os.Remove(s.path(id, journalExt)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	s.step("journal-removed")
	return nil
}

// Stats is the healthz view of the store: how many sessions hold a journal,
// the records and bytes those journals accumulated since their last
// compaction, and when the last snapshot was written.
type Stats struct {
	JournaledSessions int        `json:"journaled_sessions"`
	JournalRecords    int        `json:"journal_records"`
	JournalBytes      int64      `json:"journal_bytes"`
	LastSnapshot      *time.Time `json:"last_snapshot,omitempty"`
}

// Stats summarises the store; nil for the ephemeral store.
func (s *Store) Stats() *Stats {
	if s.dir == "" {
		return nil
	}
	out := &Stats{}
	s.mu.Lock()
	live := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		live = append(live, e)
	}
	if !s.lastSnapshot.IsZero() {
		at := s.lastSnapshot.UTC()
		out.LastSnapshot = &at
	}
	s.mu.Unlock()
	// Each entry's lock is taken outside mu: a commit wait holds it across
	// its fsync, and one slow disk must not stall every session's hooks.
	for _, e := range live {
		e.io.Lock()
		if e.j != nil {
			out.JournaledSessions++
			out.JournalRecords += e.j.written.records
			out.JournalBytes += e.j.written.bytes
		}
		e.io.Unlock()
	}
	return out
}

// Close closes every live session through the manager: the teardown an idle
// eviction takes, so each session is compacted by Release once it has
// quiesced and a restart after a clean shutdown replays nothing. The caller
// has drained the run engine. Idempotent.
func (s *Store) Close() {
	if s.dir == "" {
		return
	}
	for _, sess := range s.Manager.List() {
		// Not found: the session is already leaving, and its own teardown
		// releases it.
		_ = s.Manager.Close(sess.ID())
	}
}

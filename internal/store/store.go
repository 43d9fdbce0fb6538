// Package store owns a server's live sessions and its data directory: the
// one table of sessions — create, import, look up, list, delete, evict, with
// the session cap and the sessions_* metrics — and, with a directory, the
// durable state of each: the two file formats, and the lifecycle that writes
// them — create, commit, archive, recover.
//
// On disk a live session is a pair, an archived one a single file:
//
//	<dir>/<id>.vsnap          last full snapshot
//	<dir>/<id>.vjournal       what ran since: one record per terminal run, what it was asked
//	<dir>/closed/<id>.vsnap   final snapshot of an explicitly deleted session
//
// Both files start with an 8-byte magic and a format-version byte, followed
// by frames — kind | u32 length | JSON payload | CRC-32(payload). A snapshot
// is a versioned envelope of four sections (identity, knowledge base, event
// history, terminal runs) closed by an end marker, so truncation, corruption
// and version skew are typed errors; golden fixtures under testdata pin both
// formats byte for byte. An archive is an export like any other: Import
// brings the session back live from it.
//
// A record is what a run was asked, not what it did: the stage requests it
// applied, the events its stages recorded, and the version and a digest of
// the knowledge base it left behind. The knowledge base is a function of the
// requests — every other input of a stage derives from the scenario's seed
// and the knowledge base — so recovery re-runs them through Stage.Apply, the
// path a live stage takes, and checks the digest: every boot checks that
// wrangling is deterministic and that what the transducers remember is sound,
// and a session whose replay diverges is not served (ErrReplayDiverged).
//
// What each verb guarantees once it has returned without error:
//
//	Create     the baseline snapshot is fsynced and renamed into place over an
//	Import     empty journal — the session survives kill -9 from here on, and
//	           only from here on is it visible to Get and List
//	CommitRun  the run's one record is fsynced when CommitRun returns
//	Archive    the pair is gone from <dir> and closed/ holds the final state
//	Recover    every pair is live again: the snapshot, and the journal's valid
//	           prefix replayed over it
//
// A session leaves one way, whichever verb takes it out of the table —
// Archive (DELETE), EvictIdle or Close (shutdown): it is marked closed, its
// runs are cancelled, it quiesces, and only then are its files archived
// (DELETE) or compacted (eviction, shutdown). The verb that takes it out is
// the one that decides which; a DELETE that finds it already taken answers
// not-found and changes nothing.
//
// Snapshots are taken between stages only, never during one. A journal whose
// runs took more than replayBudget to run since the last snapshot — each
// counted at a hundredth of it at least — is compacted by the run whose
// record crossed the line, so a replay redoes at most that much work and at
// most a hundred records; a run that failed or was cancelled
// once started is compacted instead of recorded, its partial last stage
// included, so replay never re-derives a partial stage; idle eviction and
// shutdown compact a session once it has quiesced. Every snapshot —
// baseline, compaction, archive — reaches the directory through
// writeSnapshot: temp file, fsync, rename. A crash between any two
// file-system steps leaves either the state before the verb or the state
// after it, never a mixture: a journal without a snapshot was never
// acknowledged and is ignored, and a snapshot is only ever paired with a
// journal that was emptied first or whose records it already folds in
// (replay skips those by event sequence and run ID).
//
// A Store opened over "" is ephemeral: the table and the teardown are the
// same, and nothing is written.
package store

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"vada/internal/core"
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

// replayBudget bounds a recovery's replay: a session's journal is compacted
// into a fresh snapshot once the runs its records hold took this long to run,
// each weighed by recordCost.
const replayBudget = time.Second

// recordCost is what a run's record weighs against the replay budget: the
// run's wall time, its stages' actions and scoring both, which replay redoes;
// and at least a hundredth of replayBudget, so runs that take next to no time
// — an export, a run cancelled before it started — still fill the budget, and
// the journal holds at most a hundred records between snapshots.
func recordCost(run *runs.Run) time.Duration {
	cost := replayBudget / 100
	if run != nil && run.StartedAt != nil && run.FinishedAt != nil {
		cost = max(cost, run.FinishedAt.Sub(*run.StartedAt))
	}
	return cost
}

// ErrNotDurable reports that a session could not be written to the data
// directory. The caller must not acknowledge it as created.
var ErrNotDurable = errors.New("store: session is not durable")

// DefaultMaxSessions is the live-session cap of a store opened without one.
const DefaultMaxSessions = 64

// maxConcurrentTeardowns bounds the teardown fan-out of an eviction sweep or
// a shutdown, so a large sweep cannot spawn an unbounded goroutine burst,
// while one session stuck in quiesce or a slow snapshot does not serialise
// the rest of the sweep behind it.
const maxConcurrentTeardowns = 8

// Deps is the rest of the service a Store works with: the engine whose runs
// a departing session's teardown cancels and whose terminal runs it
// snapshots, the registry its session, fsync and byte counters go to, and
// the operational logger.
type Deps struct {
	Engine  *runs.Engine
	Metrics *metrics.Registry
	Logger  *slog.Logger
}

// Store is one data directory and the table of live sessions. Build it with
// Open, install CommitRun as the run engine's recorder, call Recover once
// before serving, and stop with Close.
type Store struct {
	dir string
	// replayBudget is the constant's; tests lower it.
	replayBudget time.Duration
	maxSessions  int
	Deps

	// mu guards the entry table, each entry's seq and state, counted, seq
	// and lastSnapshot. It is never held across file I/O, nor while calling
	// the run engine: the engine's transition hook looks sessions up here
	// under the engine's lock.
	mu      sync.RWMutex
	entries map[string]*entry
	// counted is the number of admitted and published entries: what the cap
	// and the sessions_live gauge count.
	counted      int
	seq          uint64 // the last creation sequence number claimed
	lastSnapshot time.Time

	// onStep, set by tests only, is called after each file-system step of a
	// verb so a crash can be staged between any two of them.
	onStep func(step string)
}

// entry is everything the store knows about one session: where it is in its
// life, and what its files hold.
type entry struct {
	sess *session.Session

	// seq is the session's place in creation order and state where it is in
	// its life; both under Store.mu.
	seq   uint64
	state entryState

	// io orders every write to this session's files and guards the fields
	// below it: every writer locks it and then looks at j, so nothing is
	// written once the entry is finished, and a new session taking over the
	// ID waits the old one out.
	io sync.Mutex
	// j is the open journal: nil in an ephemeral store, while the files are
	// still being written, and again once the entry is finished.
	j *journal
	// runSeen holds the IDs of the terminal runs the files hold: those of the
	// snapshot and those journaled since.
	runSeen map[string]bool
	// events is how many of the session's events the files hold, and cost
	// what the journal's records weigh against the replay budget (recordCost):
	// the replay a recovery would do.
	events int
	cost   time.Duration
	// dirty reports that something was recorded — or failed to be — since
	// the snapshot under the journal was written.
	dirty bool
}

// An entry is admitted (counted against the cap, its files being written,
// invisible), then published (what Get and List show, and what DELETE,
// eviction and shutdown take out), then leaving: taken out by one of them,
// torn down, and kept in the table only until it finishes, so the writers
// still recording for it find it and a session taking over its ID waits for
// it.
type entryState uint8

const (
	admitted entryState = iota
	published
	leaving
)

// Open prepares a store over dir, creating it if needed; "" is the
// ephemeral store. It serves at most maxSessions live sessions
// (DefaultMaxSessions when maxSessions is not positive).
func Open(dir string, maxSessions int, deps Deps) (*Store, error) {
	if maxSessions <= 0 {
		maxSessions = DefaultMaxSessions
	}
	s := &Store{dir: dir, replayBudget: replayBudget, maxSessions: maxSessions,
		Deps: deps, entries: map[string]*entry{}}
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries[id]
}

// options are the caller's session options followed by what every session
// the store builds gets: the service's metrics registry.
func (s *Store) options(opts []session.Option) []session.Option {
	return append(opts[:len(opts):len(opts)], session.WithMetrics(s.Metrics))
}

// admitLocked claims the next creation sequence number, unless the cap is
// reached (ErrLimit, counted). Callers hold s.mu and go on to putLocked.
func (s *Store) admitLocked() error {
	if s.counted >= s.maxSessions {
		s.Metrics.Counter("sessions_rejected_total").Inc()
		return fmt.Errorf("%w (max %d)", session.ErrLimit, s.maxSessions)
	}
	s.seq++
	return nil
}

// putLocked enters sess into the table, admitted, under the sequence number
// just claimed. Callers hold s.mu.
func (s *Store) putLocked(sess *session.Session) *entry {
	e := &entry{sess: sess, seq: s.seq}
	s.entries[sess.ID()] = e
	s.counted++
	s.Metrics.Gauge("sessions_live").Set(int64(s.counted))
	return e
}

// Create builds a session over w with a new ID and makes it durable before
// anyone can see it: at the cap it fails with ErrLimit, and a session the
// data directory cannot take fails with ErrNotDurable, is closed and was
// never visible. A session it returns is listed and, durable, survives
// kill -9.
func (s *Store) Create(w *core.Wrangler, opts ...session.Option) (*session.Session, error) {
	suffix := randomSuffix()
	s.mu.Lock()
	if err := s.admitLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// The ID carries the creation sequence, so it is assigned under the lock
	// that orders creations.
	sess := session.New(fmt.Sprintf("s%04d-%s", s.seq, suffix), w, s.options(opts)...)
	e := s.putLocked(sess)
	s.mu.Unlock()
	if err := s.open(e, nil); err != nil {
		return nil, err
	}
	s.Metrics.Counter("sessions_created_total").Inc()
	return sess, nil
}

// Import brings a session back from a snapshot envelope — an export, or the
// archive DELETE left under closed/ — under its own ID, terminal runs
// included, and makes it durable as Create does. A malformed snapshot fails
// with ErrBadSnapshot, an ID a live session holds with session.ErrExists, the
// cap with ErrLimit. An ID whose previous session is still being torn down
// is taken over once that session's file operations are done.
func (s *Store) Import(snap *SessionSnapshot) (*session.Session, error) {
	sess, err := restoreSession(snap, s.options(nil)...)
	if err != nil {
		return nil, err
	}
	e, old, err := s.adopt(sess)
	if err != nil {
		return nil, err
	}
	s.Engine.Adopt(snap.Runs)
	if err := s.open(e, old); err != nil {
		return nil, err
	}
	return sess, nil
}

// adopt admits a session that arrives with its ID, imported or recovered,
// and returns the leaving entry it supersedes, if any. An ID a published
// or admitted session holds fails with session.ErrExists.
func (s *Store) adopt(sess *session.Session) (e, old *entry, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old = s.entries[sess.ID()]; old != nil && old.state != leaving {
		return nil, nil, fmt.Errorf("%w: %q", session.ErrExists, sess.ID())
	}
	if err := s.admitLocked(); err != nil {
		return nil, nil, err
	}
	return s.putLocked(sess), old, nil
}

// open writes an admitted session's files and then publishes it: any stale
// journal under its ID is emptied first, the baseline snapshot is written
// second, and only then does the session journal and become visible. A
// failure wraps ErrNotDurable and takes the session out again, closed.
func (s *Store) open(e *entry, old *entry) error {
	e.io.Lock()
	defer e.io.Unlock()
	if old != nil {
		// The ID's previous session is still being torn down (an import over
		// an ID mid-DELETE): wait its file operations out, then it has lost
		// the ID and its teardown leaves the new files alone.
		old.io.Lock()
		s.finish(old)
		old.io.Unlock()
	}
	if s.dir != "" {
		if err := s.createFiles(e); err != nil {
			s.finish(e)
			e.sess.Close()
			s.Logger.Error("making session durable", "session", e.sess.ID(), "error", err)
			return fmt.Errorf("%w: %w", ErrNotDurable, err)
		}
	}
	s.publish(e)
	return nil
}

// publish makes an admitted entry visible to Get, List and the verbs that
// take sessions out.
func (s *Store) publish(e *entry) {
	s.mu.Lock()
	e.state = published
	s.mu.Unlock()
}

// createFiles is open's file-system half: journal emptied, then snapshot.
func (s *Store) createFiles(e *entry) error {
	id := e.sess.ID()
	if !SafeID(id) {
		return fmt.Errorf("session ID %q is not filesystem-safe", id)
	}
	j, stale, err := openJournal(s.path(id, journalExt), s.Metrics)
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

// Get returns the published session under id, or session.ErrNotFound.
func (s *Store) Get(id string) (*session.Session, error) {
	s.mu.RLock()
	e := s.entries[id]
	ok := e != nil && e.state == published
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", session.ErrNotFound, id)
	}
	return e.sess, nil
}

// List returns the published sessions in creation order. The order lives on
// the entries, so listing allocates only its own slices.
func (s *Store) List() []*session.Session {
	s.mu.RLock()
	live := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		if e.state == published {
			live = append(live, e)
		}
	}
	s.mu.RUnlock()
	slices.SortFunc(live, func(a, b *entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]*session.Session, len(live))
	for i, e := range live {
		out[i] = e.sess
	}
	return out
}

// Len returns the number of live sessions the cap counts: those published
// and those whose files are still being written.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counted
}

// AtCap reports whether the session cap is currently reached — a cheap
// pre-check for callers doing expensive setup before Create, which remains
// the authoritative, race-free gate.
func (s *Store) AtCap() bool { return s.Len() >= s.maxSessions }

// start makes the entry journal through j, over files that hold the given
// terminal runs and every event the session has. Callers hold e.io.
func (e *entry) start(j *journal, snapshotRuns []runs.Run) {
	e.j = j
	e.snapshotted(snapshotRuns, len(e.sess.Events()))
	e.dirty = j.written.records > 0
}

// snapshotted makes what the files hold exactly a snapshot with these runs
// and this many events, over an empty journal. Callers hold e.io.
func (e *entry) snapshotted(snapshotRuns []runs.Run, events int) {
	e.runSeen = make(map[string]bool, len(snapshotRuns))
	for _, r := range snapshotRuns {
		e.runSeen[r.ID] = true
	}
	e.events, e.cost = events, 0
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
	s.Metrics.Histogram(metrics.Name("persist_fsync_seconds", "path", "snapshot")).ObserveSince(t0)
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
// already took the ID) and the cap's count (unless it was taken out before),
// its journal is closed, and every writer that locks io afterwards finds j
// nil and declines. Callers hold e.io.
func (s *Store) finish(e *entry) {
	id := e.sess.ID()
	s.mu.Lock()
	if s.entries[id] == e {
		delete(s.entries, id)
	}
	if e.state != leaving {
		s.takeLocked(e)
	}
	s.mu.Unlock()
	if e.j == nil {
		return
	}
	if err := e.j.close(); err != nil {
		s.Logger.Error("closing journal", "session", id, "error", err)
	}
	e.j = nil
}

// takeLocked marks an entry leaving: out of view and out of the cap's count.
// Callers hold s.mu.
func (s *Store) takeLocked(e *entry) {
	e.state = leaving
	s.counted--
	s.Metrics.Gauge("sessions_live").Set(int64(s.counted))
}

// compact folds the journal into a fresh snapshot of the session, holding
// the pending runs too (a run the engine has not published as terminal yet),
// and empties it. Callers hold e.io; the capture waits for the session to be
// between stages.
func (s *Store) compact(e *entry, pending ...runs.Run) error {
	var snap *SessionSnapshot
	e.sess.BetweenStages(func() { snap = captureSession(e.sess, s.Engine) })
	for _, r := range pending {
		if !slices.ContainsFunc(snap.Runs, func(held runs.Run) bool { return held.ID == r.ID }) {
			snap.Runs = append(snap.Runs, r)
		}
	}
	if err := s.writeSnapshot(snap); err != nil {
		return err
	}
	if err := e.j.reset(); err != nil {
		return err
	}
	s.Metrics.Counter("persist_compactions_total").Inc()
	s.step("truncate")
	e.snapshotted(snap.Runs, len(snap.Events))
	e.dirty = false
	return nil
}

// CommitRun is the run engine's recorder: it journals a terminal run the
// session's files do not hold yet as one record — the requests the run
// applied, the events its stages recorded, and the version and digest of the
// knowledge base it left behind — and returns once the record is fsynced.
// ctx carries the run's trace span, making the append a `journal.append`
// child of it.
//
// A run that failed or was cancelled once it had started is compacted
// instead: its last stage may have changed the knowledge base without
// completing, and replay never re-derives a partial stage. So is a run whose
// requests do not account for the session's new events (a stage ran outside
// the engine), and a run whose record the journal cannot take — a failed
// write or fsync, or a journal an earlier one poisoned; the compaction's
// reset clears the poison. A record that takes the journal past the replay
// budget (recordCost) is followed by a compaction. A compaction that fails
// is logged, not fatal: the next compaction, evict or shutdown snapshot
// covers the run.
func (s *Store) CommitRun(ctx context.Context, run runs.Run, applied []session.StageRequest) {
	id := run.SessionID
	e := s.lookup(id)
	if e == nil {
		return
	}
	e.io.Lock()
	defer e.io.Unlock()
	if e.j == nil || e.runSeen[run.ID] {
		return
	}
	e.dirty = true
	var asked *Asked
	if run.StartedAt == nil {
		asked = &Asked{} // it applied nothing: its record is the run alone
	} else {
		e.sess.BetweenStages(func() {
			events := e.sess.EventsSince(e.events)
			if run.State == runs.StateSucceeded && len(events) == len(applied) {
				k := e.sess.Wrangler().KB
				asked = &Asked{Requests: applied, Events: events, Version: k.Version(), Digest: k.Digest()}
			}
		})
	}
	if asked == nil {
		if err := s.compact(e, run); err != nil {
			s.Logger.Error("compacting session after a run that did not complete", "run", run.ID, "session", id, "error", err)
		}
		return
	}
	rec := &Record{At: time.Now(), Run: &run, Asked: asked}
	span := trace.ChildFromContext(ctx, "journal.append", "session", id, "stages", fmt.Sprint(len(asked.Requests)))
	err := e.j.append(rec)
	if err == nil {
		s.step("record")
		err = e.j.sync()
	}
	if err != nil {
		span.EndErr(err)
		s.Logger.Error("journaling run", "run", run.ID, "session", id, "error", err)
		if err := s.compact(e, run); err != nil {
			s.Logger.Error("compacting session after its record failed", "run", run.ID, "session", id, "error", err)
		}
		return
	}
	span.SetAttr("seq", fmt.Sprint(rec.Seq))
	span.End()
	s.step("record-sync")
	e.runSeen[run.ID] = true
	e.events += len(asked.Events)
	e.cost += recordCost(&run)
	if records, cost := e.j.written.records, e.cost; cost >= s.replayBudget {
		if err := s.compact(e, run); err != nil {
			s.Logger.Error("compacting session", "session", id, "error", err)
		} else {
			s.Logger.Info("session compacted", "session", id, "journal_records", records, "replay", cost)
		}
	}
}

// Archive is DELETE: the session is taken out of view and torn down, its
// final snapshot moved under closed/ and its live pair removed, so it no
// longer comes back at boot. An ID no published session holds — unknown,
// already deleted, or taken out by an eviction or shutdown first — fails
// with session.ErrNotFound and changes nothing.
func (s *Store) Archive(id string) error {
	s.mu.Lock()
	e := s.entries[id]
	if e == nil || e.state != published {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", session.ErrNotFound, id)
	}
	s.takeLocked(e)
	s.mu.Unlock()
	s.Metrics.Counter("sessions_closed_total").Inc()
	s.teardown(e, true)
	return nil
}

// EvictIdle tears down every session whose last activity is older than
// maxIdle, compacting each so a restart replays nothing and it stays
// restorable, and returns the evicted IDs sorted ascending. Run it from a
// ticker to bound the memory of abandoned sessions.
func (s *Store) EvictIdle(maxIdle time.Duration) []string {
	cutoff := time.Now().Add(-maxIdle)
	return s.sweep("sessions_evicted_total", func(sess *session.Session) bool {
		return sess.LastActive().Before(cutoff)
	})
}

// Close is the graceful shutdown: every live session is torn down as an
// idle eviction tears it down, so a restart after it replays nothing. The
// caller has drained the run engine. Idempotent.
func (s *Store) Close() {
	s.sweep("sessions_closed_total", func(*session.Session) bool { return true })
}

// sweep takes every published session that pick selects out of view under
// one lock, then tears them down concurrently, at most
// maxConcurrentTeardowns at a time, each compacted, and counted under
// counter. It returns their IDs sorted ascending.
func (s *Store) sweep(counter string, pick func(*session.Session) bool) []string {
	s.mu.Lock()
	var out []*entry
	for _, e := range s.entries {
		if e.state == published && pick(e.sess) {
			s.takeLocked(e)
			out = append(out, e)
		}
	}
	s.mu.Unlock()
	ids := make([]string, len(out))
	sem := make(chan struct{}, maxConcurrentTeardowns)
	var wg sync.WaitGroup
	for i, e := range out {
		ids[i] = e.sess.ID()
		s.Metrics.Counter(counter).Inc()
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			s.teardown(e, false)
		}()
	}
	wg.Wait()
	slices.Sort(ids)
	return ids
}

// teardown is how every session leaves, once DELETE, eviction or shutdown
// has taken it out of view: it is marked closed (new stages fail), its runs
// are cancelled (the stage in flight observes it), it quiesces, the engine
// records its runs' terminal states, and only then are its files brought to
// their final state — archived under closed/ when archive is set, compacted
// otherwise, left alone when the store is ephemeral or a newer session has
// taken over the ID — and it leaves the table.
func (s *Store) teardown(e *entry, archive bool) {
	id := e.sess.ID()
	e.sess.Close()
	if n := s.Engine.CancelSession(id); n > 0 {
		s.Logger.Info("session closing", "session", id, "runs_cancelled", n)
	}
	e.sess.Quiesce()
	s.Engine.WaitSession(id)
	e.io.Lock()
	defer e.io.Unlock()
	switch {
	case e.j == nil:
	case archive:
		if err := s.archive(e); err != nil {
			s.Logger.Error("archiving session", "session", id, "error", err)
		} else {
			s.Logger.Info("session archived", "session", id, "dir", closedDir)
		}
	default:
		if err := s.compact(e); err != nil {
			s.Logger.Error("compacting session on evict", "session", id, "error", err)
		}
	}
	s.finish(e)
	s.Logger.Info("session closed", "session", id)
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
	// Each entry's lock is taken outside mu: CommitRun holds it across its
	// fsync, and one slow disk must not stall every session's hooks.
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

// randomSuffix makes session IDs unguessable across restarts.
func randomSuffix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

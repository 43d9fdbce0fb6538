package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
)

// rig is one process's worth of service around a store — run engine and
// store — wired the way the server wires them, without HTTP.
type rig struct {
	t   *testing.T
	eng *runs.Engine
	reg *metrics.Registry
	st  *Store
}

// boot starts a rig over dir and recovers what the directory holds. The
// rig is abandoned, not closed, when the test ends: only Close (called by
// the tests that mean a graceful shutdown) writes anything on the way out.
func boot(t *testing.T, dir string) *rig {
	t.Helper()
	r := start(t, dir)
	r.st.Recover()
	return r
}

// start is boot without the recovery pass.
func start(t *testing.T, dir string) *rig {
	t.Helper()
	r := &rig{t: t, reg: metrics.NewRegistry()}
	r.eng = runs.New(runs.WithWorkers(2), runs.WithObserver(runs.Observer{
		Record: r.commitRun,
	}))
	var err error
	r.st, err = Open(dir, 0, Deps{Engine: r.eng, Metrics: r.reg, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.eng.Close)
	return r
}

// commitRun is the store's recorder, installed as the server installs it.
func (r *rig) commitRun(ctx context.Context, run runs.Run, applied []session.StageRequest) {
	r.st.CommitRun(ctx, run, applied)
}

// scenario is a small scenario wrangler and the options POST /sessions
// gives its session.
func scenario(seed int64) (*core.Wrangler, []session.Option) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 20
	cfg.Seed = seed
	sc := datagen.Generate(cfg)
	return core.BuildScenarioWrangler(sc), []session.Option{session.WithName("t"), session.WithScenario(sc, seed)}
}

// create is what POST /sessions does.
func (r *rig) create(seed int64) *session.Session {
	r.t.Helper()
	w, opts := scenario(seed)
	sess, err := r.st.Create(w, opts...)
	if err != nil {
		r.t.Fatal(err)
	}
	return sess
}

// importEnvelope is what POST /sessions/import does.
func (r *rig) importEnvelope(envelope []byte) *session.Session {
	r.t.Helper()
	snap, err := ReadSessionSnapshot(bytes.NewReader(envelope))
	if err != nil {
		r.t.Fatal(err)
	}
	sess, err := r.st.Import(snap)
	if err != nil {
		r.t.Fatal(err)
	}
	return sess
}

// onlyID is the ID of the one session in the store's table, published or
// not; "" when there is none.
func (r *rig) onlyID() string {
	r.st.mu.RLock()
	defer r.st.mu.RUnlock()
	for id := range r.st.entries {
		return id
	}
	return ""
}

// park holds sess's run mutex until the returned release is called, as a
// stage in flight would: a teardown that has taken the session out waits in
// its quiesce, before it writes anything — the mid-DELETE window.
func park(sess *session.Session) (release func()) {
	parked, done := make(chan struct{}), make(chan struct{})
	go sess.BetweenStages(func() {
		close(parked)
		<-done
	})
	<-parked
	return func() { close(done) }
}

// gone waits until id no longer resolves: a teardown has taken it out.
func (r *rig) gone(id string) {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := r.st.Get(id); err != nil {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("session %s was never taken out of the table", id)
		}
	}
}

// stage runs one stage request on sess as a run and waits for it, as
// POST .../stages/{name} does.
func (r *rig) stage(sess *session.Session, name, payload string) session.Event {
	r.t.Helper()
	sub, err := r.eng.SubmitStage(context.Background(), sess, session.StageRequest{Stage: name, Payload: json.RawMessage(payload)})
	if err != nil {
		r.t.Fatal(err)
	}
	run, err := sub.Wait(context.Background())
	if err != nil {
		r.t.Fatal(err)
	}
	return *run.Event
}

func (r *rig) bootstrap(sess *session.Session) {
	r.t.Helper()
	r.stage(sess, session.StageBootstrap, "")
}

// runInline does for a run of the given requests what a worker does, on the
// calling goroutine, so that a crash staged in the store's file steps
// unwinds it: it applies each stage, publishes the run as ending in state,
// and records it. (A worker publishes the run once
// its record is durable; publishing it first makes it part of what the
// crash cases compare.)
func (r *rig) runInline(sess *session.Session, state runs.State, reqs ...session.StageRequest) {
	r.t.Helper()
	ctx := context.Background()
	start := time.Now()
	var applied []session.StageRequest
	for _, req := range reqs {
		st, payload, err := session.Resolve(req)
		if err != nil {
			r.t.Fatal(err)
		}
		if _, err := st.Apply(ctx, sess, payload); err != nil {
			r.t.Fatal(err)
		}
		applied = append(applied, session.Applied(req, payload))
	}
	end := time.Now()
	run := runs.Run{ID: fmt.Sprintf("r-inline-%d", end.UnixNano()), SessionID: sess.ID(), Stage: reqs[len(reqs)-1].Stage,
		State: state, CreatedAt: start, StartedAt: &start, FinishedAt: &end}
	r.eng.Adopt([]runs.Run{run})
	r.st.CommitRun(ctx, run, applied)
}

// idleRun completes a run that leaves the session untouched, so the only
// thing it writes is the terminal run's own record.
func (r *rig) idleRun(sess *session.Session) {
	r.t.Helper()
	sub, err := r.eng.Submit(context.Background(), sess.ID(), "noop", func(context.Context) (session.Event, error) {
		return session.Event{Type: session.EventStage, Stage: "noop"}, nil
	})
	if err != nil {
		r.t.Fatal(err)
	}
	if _, err := sub.Wait(context.Background()); err != nil {
		r.t.Fatal(err)
	}
}

// unrecordedRun leaves a terminal run the store never saw: what a session's
// teardown or a shutdown leaves when it cancels a queued run, for the
// snapshot that follows to fold in.
func (r *rig) unrecordedRun(sess *session.Session) {
	now := time.Now()
	r.eng.Adopt([]runs.Run{{ID: fmt.Sprintf("r-unrecorded-%d", now.UnixNano()), SessionID: sess.ID(),
		Stage: "noop", State: runs.StateCancelled, CreatedAt: now, FinishedAt: &now, Error: "cancelled"}})
}

// step runs one stage of the library API, outside the run engine.
func step(sess *session.Session, name string, action func(w *core.Wrangler) error) error {
	_, err := sess.Step(context.Background(), name, action)
	return err
}

// unarchive imports the archive DELETE left under closed/ for id — what an
// operator does to bring the session back — and returns the imported
// session's export; nil when closed/ holds no archive for id.
func (r *rig) unarchive(dir, id string) []byte {
	r.t.Helper()
	envelope, err := os.ReadFile(filepath.Join(dir, closedDir, id+SnapshotExt))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		r.t.Fatal(err)
	}
	return r.export(r.importEnvelope(envelope))
}

// export is the session's full state as the bytes GET .../export serves.
func (r *rig) export(sess *session.Session) []byte {
	r.t.Helper()
	var buf bytes.Buffer
	if err := ExportSession(&buf, sess, r.eng); err != nil {
		r.t.Fatal(err)
	}
	return buf.Bytes()
}

// exportID exports the live session under id, nil when there is none.
func (r *rig) exportID(id string) []byte {
	r.t.Helper()
	sess, err := r.st.Get(id)
	if err != nil {
		return nil
	}
	return r.export(sess)
}

// admittedExport exports the session the table holds under id whether it
// is visible yet or not — what a create cut short would have acknowledged
// had it returned; nil when there is none.
func (r *rig) admittedExport(id string) []byte {
	r.t.Helper()
	if e := r.st.lookup(id); e != nil {
		return r.export(e.sess)
	}
	return nil
}

func (r *rig) snapshotsWritten() int64 { return r.reg.Counter("persist_snapshots_total").Value() }

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// crashed is the panic a staged crash unwinds the verb with.
type crashed struct{}

// crashWhen runs op and abandons it right after the first file-system step
// for which when returns true: the step hook panics, the verb's deferred
// unlocks run, and nothing further is written. It returns the steps taken
// and whether op ran to the end.
func (r *rig) crashWhen(when func(n int, step string) bool, op func()) (steps []string, finished bool) {
	r.st.onStep = func(step string) {
		steps = append(steps, step)
		if when(len(steps), step) {
			panic(crashed{})
		}
	}
	defer func() {
		r.st.onStep = nil
		if p := recover(); p != nil {
			if _, ok := p.(crashed); !ok {
				panic(p)
			}
		}
	}()
	op()
	return steps, true
}

// world is what a crash case knows about its one session.
type world struct {
	id string
	// before is the acknowledged live state before the verb (nil = the
	// session is not live); archive is what closed/ holds for it, if anything.
	before, archive []byte
}

// TestCrashSteps abandons the store after every file-system step of every
// verb and recovers the directory into a fresh rig. Whatever the step, the
// recovered session is byte-equal to the state acknowledged before the verb
// or to the one the verb acknowledges by returning — a journal with no
// snapshot, a snapshot over a stale journal or a half-moved archive never
// compose into a state nobody was told about — and once the verb has
// returned it is the latter. A session missing from the live set is always
// still restorable by importing its archive when it had been archived.
func TestCrashSteps(t *testing.T) {
	cases := []struct {
		name string
		// prepare brings dir to the state before the verb and returns the rig
		// the verb runs in.
		prepare func(t *testing.T, dir string) (*rig, *world)
		verb    func(r *rig, w *world)
		// after is the live state the verb acknowledges, read off the rig's
		// memory once the verb has returned or been cut short.
		after func(r *rig, w *world) []byte
		steps []string
	}{
		{
			name:    "create",
			prepare: func(t *testing.T, dir string) (*rig, *world) { return start(t, dir), &world{} },
			verb: func(r *rig, w *world) {
				// The session's ID is known once it is admitted, before its
				// first file step; a crash unwinds through this defer.
				defer func() { w.id = r.onlyID() }()
				r.create(1)
			},
			after: func(r *rig, w *world) []byte { return r.admittedExport(w.id) },
			steps: []string{"journal", "snapshot-temp", "snapshot"},
		},
		{
			// An import lands on an ID whose previous session left a journal
			// behind (its archive was cut short): the stale records must never
			// replay over the imported snapshot.
			name: "create over a stale journal",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				w := &world{id: sess.ID(), before: r.export(sess)} // before = the envelope imported below
				r.bootstrap(sess)
				w.archive = r.export(sess)
				r.crashWhen(func(_ int, step string) bool { return step == "archive" },
					func() { r.st.Archive(w.id) })
				return boot(t, dir), w
			},
			verb: func(r *rig, w *world) {
				envelope := w.before
				w.before = nil
				r.importEnvelope(envelope)
			},
			after: func(r *rig, w *world) []byte { return r.admittedExport(w.id) },
			steps: []string{"journal", "snapshot-temp", "snapshot"},
		},
		{
			name: "append",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				return r, &world{id: sess.ID(), before: r.export(sess)}
			},
			verb: func(r *rig, w *world) {
				sess, _ := r.st.Get(w.id)
				r.runInline(sess, runs.StateSucceeded, session.StageRequest{Stage: session.StageBootstrap})
			},
			// The run's stages ran in memory before its record was written.
			after: func(r *rig, w *world) []byte { return r.exportID(w.id) },
			steps: []string{"record", "record-sync"},
		},
		{
			// The run whose record takes the journal past the replay budget
			// compacts at its end.
			name: "compact",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				r.bootstrap(sess)
				r.idleRun(sess) // the run's record
				r.st.replayBudget = time.Nanosecond
				return r, &world{id: sess.ID(), before: r.export(sess)}
			},
			verb: func(r *rig, w *world) {
				sess, _ := r.st.Get(w.id)
				r.runInline(sess, runs.StateSucceeded, session.StageRequest{Stage: session.StageDataContext})
			},
			after: func(r *rig, w *world) []byte { return r.exportID(w.id) },
			steps: []string{"record", "record-sync", "snapshot-temp", "snapshot", "truncate"},
		},
		{
			// A run that fails once started is compacted, not recorded: its
			// stages may have moved the knowledge base without an event.
			name: "failed run",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				r.bootstrap(sess)
				return r, &world{id: sess.ID(), before: r.export(sess)}
			},
			verb: func(r *rig, w *world) {
				sess, _ := r.st.Get(w.id)
				r.runInline(sess, runs.StateFailed, session.StageRequest{Stage: session.StageDataContext})
			},
			after: func(r *rig, w *world) []byte { return r.exportID(w.id) },
			steps: []string{"snapshot-temp", "snapshot", "truncate"},
		},
		{
			name: "archive",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				r.bootstrap(sess)
				state := r.export(sess)
				return r, &world{id: sess.ID(), before: state, archive: state}
			},
			verb: func(r *rig, w *world) {
				if err := r.st.Archive(w.id); err != nil {
					r.t.Fatal(err)
				}
			},
			after: func(r *rig, w *world) []byte { return nil },
			steps: []string{"snapshot-temp", "snapshot", "archive", "journal-removed"},
		},
		{
			// Unarchiving is an import of the file DELETE left under closed/.
			name: "import archive",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				r.bootstrap(sess)
				w := &world{id: sess.ID(), archive: r.export(sess)}
				if err := r.st.Archive(w.id); err != nil {
					t.Fatal(err)
				}
				return boot(t, dir), w
			},
			verb:  func(r *rig, w *world) { r.unarchive(r.st.dir, w.id) },
			after: func(r *rig, w *world) []byte { return w.archive },
			steps: []string{"journal", "snapshot-temp", "snapshot"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for k := 1; ; k++ {
				dir := t.TempDir()
				r, w := tc.prepare(t, dir)
				steps, finished := r.crashWhen(func(n int, _ string) bool { return n == k }, func() { tc.verb(r, w) })
				after := tc.after(r, w)
				at := "after the verb returned"
				if !finished {
					at = fmt.Sprintf("abandoned after step %d (%s)", k, steps[k-1])
				}

				// A default boot: the pre-verb state or the post-verb state.
				live := boot(t, dir).exportID(w.id)
				switch {
				case finished && !bytes.Equal(live, after):
					t.Fatalf("%s: recovered state is not the acknowledged one (%d bytes, want %d)", at, len(live), len(after))
				case !bytes.Equal(live, w.before) && !bytes.Equal(live, after):
					t.Fatalf("%s: recovered %d bytes: neither the state before the verb (%d) nor after it (%d)",
						at, len(live), len(w.before), len(after))
				}
				// What is not live comes back by importing its archive, byte for
				// byte the state DELETE acknowledged.
				if live == nil {
					if got := boot(t, dir).unarchive(dir, w.id); !bytes.Equal(got, w.archive) {
						t.Fatalf("%s: importing the archive restored %d bytes, want %d", at, len(got), len(w.archive))
					}
				}
				if finished {
					if fmt.Sprint(steps) != fmt.Sprint(tc.steps) {
						t.Fatalf("file-system steps = %v, want %v", steps, tc.steps)
					}
					return
				}
			}
		})
	}
}

// TestArchiveEquivalence pins what DELETE leaves under closed/: bytes that
// restore to a session whose export equals the export taken just before the
// DELETE — whether the snapshot on disk was already final (an import nobody
// touched, or a compaction that folded in a stage and a journaled run:
// renamed as it is, not rewritten) or had to be brought up to date (a
// journaled stage; a journaled run; a terminal run the journal never saw; a
// record the journal could not take, whose compaction could not reset the
// journal either).
func TestArchiveEquivalence(t *testing.T) {
	cases := []struct {
		name    string
		build   func(r *rig) *session.Session
		rewrite bool
	}{
		{"never-staged import", func(r *rig) *session.Session {
			src := start(r.t, r.t.TempDir())
			sess := src.create(2)
			src.bootstrap(sess)
			src.idleRun(sess)
			return r.importEnvelope(src.export(sess))
		}, false},
		{"staged session", func(r *rig) *session.Session {
			sess := r.create(2)
			r.bootstrap(sess)
			return sess
		}, true},
		{"journaled run", func(r *rig) *session.Session {
			sess := r.create(2)
			r.idleRun(sess)
			return sess
		}, true},
		{"terminal run not yet journaled", func(r *rig) *session.Session {
			sess := r.create(2)
			r.unrecordedRun(sess)
			return sess
		}, true},
		{"run journaled, then compacted by a stage", func(r *rig) *session.Session {
			sess := r.create(2)
			r.idleRun(sess)
			r.st.replayBudget = time.Nanosecond
			r.bootstrap(sess)
			return sess
		}, false},
		{"a record that failed to append", func(r *rig) *session.Session {
			sess := r.create(2)
			e := r.st.lookup(sess.ID())
			e.io.Lock()
			e.j.f.Close() // the journal can no longer write
			e.io.Unlock()
			r.bootstrap(sess)
			return sess
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := start(t, dir)
			sess := tc.build(r)
			id := sess.ID()
			want := r.export(sess)
			written := r.snapshotsWritten()
			if err := r.st.Archive(id); err != nil {
				t.Fatal(err)
			}
			if got := r.snapshotsWritten() - written; (got > 0) != tc.rewrite {
				t.Fatalf("archive wrote %d snapshots, rewrite expected: %v", got, tc.rewrite)
			}
			if exists(r.st.path(id, SnapshotExt)) || exists(r.st.path(id, journalExt)) {
				t.Fatal("live pair survived the archive")
			}
			r2 := boot(t, dir)
			if got := r2.exportID(id); got != nil {
				t.Fatal("archived session came back on boot")
			}
			if got := r2.unarchive(dir, id); !bytes.Equal(got, want) {
				t.Fatalf("imported archive exports %d bytes, pre-DELETE export was %d", len(got), len(want))
			}
			// Live again means durable again: a further boot needs no import.
			if got := boot(t, dir).exportID(id); !bytes.Equal(got, want) {
				t.Fatal("unarchived session is not durable as a live session")
			}
		})
	}
}

// TestSnapshotCurrent pins when the snapshot on disk may be taken as the
// session's whole durable state: only while nothing was recorded since it was
// written — a failed record included — and every terminal run is already in
// it.
func TestSnapshotCurrent(t *testing.T) {
	r := start(t, t.TempDir())
	sess := r.create(4)
	e := r.st.lookup(sess.ID())
	current := func() bool {
		e.io.Lock()
		defer e.io.Unlock()
		return r.st.current(e)
	}

	compact := func() {
		t.Helper()
		e.io.Lock()
		err := r.st.compact(e)
		e.io.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}

	if !current() {
		t.Fatal("a fresh journal over a fresh snapshot is not current")
	}
	r.idleRun(sess)
	if current() {
		t.Fatal("current with a record in the journal")
	}
	compact()
	if !current() {
		t.Fatal("not current after compaction folded the run in")
	}
	r.unrecordedRun(sess)
	if current() {
		t.Fatal("current with an unjournaled terminal run")
	}
	compact()
	if !current() {
		t.Fatal("not current after compaction folded the unjournaled run in")
	}
	// A record the journal cannot take is compacted, but a journal the
	// compaction cannot reset leaves the files not current.
	e.io.Lock()
	e.j.f.Close()
	e.io.Unlock()
	r.bootstrap(sess)
	if current() {
		t.Fatal("current after a lost record")
	}
}

// TestSupersession: an import that lands on an ID whose previous session is
// still mid-DELETE owns the ID's files from then on — the old teardown,
// whenever it gets to run, leaves them alone — and a duplicate DELETE
// answers not-found without bringing anything back.
func TestSupersession(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	old := r.create(3)
	id := old.ID()
	envelope := r.export(old) // the state the client re-imports
	r.bootstrap(old)

	// DELETE the session and park its teardown before it writes anything.
	release := park(old)
	deleted := make(chan error, 1)
	go func() { deleted <- r.st.Archive(id) }()
	r.gone(id)
	if err := r.st.Archive(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("duplicate DELETE mid-teardown: %v, want not found", err)
	}
	fresh := r.importEnvelope(envelope)
	want := r.export(fresh)
	release()
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if exists(filepath.Join(dir, closedDir, id+SnapshotExt)) {
		t.Fatal("the superseded session's teardown archived over the new session")
	}
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the imported session exported %d", len(got), len(want))
	}
	// The new session journals on: the old teardown did not close its journal.
	r.bootstrap(fresh)
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, r.export(fresh)) {
		t.Fatal("a stage of the new session was not journaled")
	}

	// DELETE it for good; a second DELETE finds nothing and resurrects nothing.
	if err := r.st.Archive(id); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Archive(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("duplicate DELETE: %v, want not found", err)
	}
	if exists(r.st.path(id, SnapshotExt)) || exists(r.st.path(id, journalExt)) {
		t.Fatal("duplicate DELETE brought the live pair back")
	}
	if n := boot(t, dir).st.Len(); n != 0 {
		t.Fatalf("%d sessions after DELETE, want none", n)
	}
}

// TestSupersessionWaitsForArchive: when the old session's archive is
// already moving files, the import waits for it to finish instead of
// writing into the middle of it — both states end up on disk whole.
func TestSupersessionWaitsForArchive(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	old := r.create(3)
	id := old.ID()
	envelope := r.export(old)
	r.bootstrap(old)
	archived := r.export(old)

	reached, resume := make(chan struct{}), make(chan struct{})
	r.st.onStep = func(step string) {
		if step == "snapshot-temp" {
			r.st.onStep = nil
			close(reached)
			<-resume
		}
	}
	deleted := make(chan error, 1)
	go func() { deleted <- r.st.Archive(id) }()
	<-reached
	imported := make(chan []byte, 1)
	go func() { imported <- r.export(r.importEnvelope(envelope)) }()
	select {
	case <-imported:
		t.Fatal("import wrote files while the old session's archive was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(resume)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	want := <-imported
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("live state is %d bytes, the imported session exported %d", len(got), len(want))
	}
	f, err := os.ReadFile(filepath.Join(dir, closedDir, id+SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f, archived) {
		t.Fatal("the old session's archive is not its final state")
	}
}

// TestCreateNotDurable: a data directory that cannot take the session makes
// Create fail with the typed error and register nothing, and an ID that is
// not a single path element never reaches the file system.
func TestCreateNotDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	r := start(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, opts := scenario(4)
	if _, err := r.st.Create(w, opts...); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Create into a regular file: %v, want ErrNotDurable", err)
	}
	if st := r.st.Stats(); st.JournaledSessions != 0 || r.st.Len() != 0 || len(r.st.List()) != 0 {
		t.Fatalf("failed Create left sessions registered: %+v, %d live", st, r.st.Len())
	}

	r2 := start(t, t.TempDir())
	snap, err := ReadSessionSnapshot(bytes.NewReader(r2.export(r2.create(4))))
	if err != nil {
		t.Fatal(err)
	}
	snap.Meta.ID = "../escape"
	if _, err := r2.st.Import(snap); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Import of a path-escaping ID: %v, want ErrNotDurable", err)
	}
	if _, err := r2.st.Get("../escape"); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("the session that could not be made durable is visible: %v", err)
	}
}

// TestCloseCompacts: a graceful shutdown leaves every journal empty and
// every snapshot complete, and idle eviction does the same for one session.
func TestCloseCompacts(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	a, b := r.create(5), r.create(6)
	r.bootstrap(a)
	r.bootstrap(b)
	wantA, wantB := r.export(a), r.export(b)

	if ids := r.st.EvictIdle(0); len(ids) != 2 {
		// Both are idle by now; evict them one way or the other below.
		t.Fatalf("evicted %v, want both sessions", ids)
	}
	for _, id := range []string{a.ID(), b.ID()} {
		if info, err := os.Stat(r.st.path(id, journalExt)); err != nil || info.Size() != 9 {
			t.Fatalf("journal of evicted %s not truncated to its header: %v", id, err)
		}
	}
	r2 := boot(t, dir)
	if !bytes.Equal(r2.exportID(a.ID()), wantA) || !bytes.Equal(r2.exportID(b.ID()), wantB) {
		t.Fatal("evicted sessions did not recover to their final state")
	}
	sa, _ := r2.st.Get(a.ID())
	r2.stage(sa, session.StageDataContext, "")
	wantA = r2.export(sa)
	if st := r2.st.Stats(); st.JournaledSessions != 2 || st.JournalRecords != 1 || st.LastSnapshot != nil {
		t.Fatalf("stats before shutdown = %+v", st)
	}
	r2.eng.Close()
	r2.st.Close()
	r2.st.Close() // idempotent
	if info, err := os.Stat(r2.st.path(a.ID(), journalExt)); err != nil || info.Size() != 9 {
		t.Fatalf("journal not truncated at shutdown: %v", err)
	}
	if got := boot(t, dir).exportID(a.ID()); !bytes.Equal(got, wantA) {
		t.Fatal("state after a graceful shutdown is not the final state")
	}
}

// TestJournalCompaction drives the replay budget over runs: the run whose
// record takes the stage time the journal holds past it — alone, or with
// the records before it — folds the journal into a fresh snapshot at its end,
// no run before it does, the journal is truncated to its header, and a boot
// over the compacted pair restores the full state.
func TestJournalCompaction(t *testing.T) {
	stages := []string{session.StageBootstrap, session.StageDataContext, session.StageUserContext}
	for _, tc := range []struct {
		name string
		// runs is how many runs it takes to cross the budget.
		runs int
	}{
		{"one run", 1},
		{"records", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := start(t, dir)
			sess := r.create(8)
			e := r.st.lookup(sess.ID())
			r.st.replayBudget = time.Hour
			for i, name := range stages[:tc.runs] {
				last := i == tc.runs-1
				if last {
					// Past the budget with this run's stage time, whatever it is.
					e.io.Lock()
					r.st.replayBudget = e.cost + time.Nanosecond
					e.io.Unlock()
				}
				r.stage(sess, name, "")
				if compacted := r.snapshotsWritten() == 2; compacted != last {
					t.Fatalf("run %d of %d: compacted %v", i+1, tc.runs, compacted)
				}
			}
			want := r.export(sess)
			if info, err := os.Stat(r.st.path(sess.ID(), journalExt)); err != nil || info.Size() != 9 {
				t.Fatalf("the run past the budget did not truncate the journal: %v", err)
			}
			if got := boot(t, dir).exportID(sess.ID()); !bytes.Equal(got, want) {
				t.Fatalf("recovered %d bytes from the compacted pair, the session exported %d", len(got), len(want))
			}
		})
	}
}

// TestExportsFillTheReplayBudget: runs that take next to no time — exports,
// which change only their export fact — still count against the replay
// budget, each at a hundredth of it at least, so a session that only exports
// compacts within a hundred runs and its journal cannot grow without bound.
func TestExportsFillTheReplayBudget(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	sess := r.create(8)
	r.bootstrap(sess)
	for i := 1; r.snapshotsWritten() == 1; i++ {
		if i > 100 {
			t.Fatalf("100 export runs left %d records in the journal, no compaction", r.st.Stats().JournalRecords)
		}
		r.stage(sess, session.StageExport, "")
	}
	if got := boot(t, dir).exportID(sess.ID()); !bytes.Equal(got, r.export(sess)) {
		t.Fatal("the compacted pair does not restore the live session")
	}
}

// TestCompactionRestartsTheJournal: records written after a compaction
// replay over the snapshot it wrote, not the one before it; and a compaction
// whose snapshot cannot be written leaves the journal as it was, for the
// next stage to compact.
func TestCompactionRestartsTheJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	r := start(t, dir)
	r.st.replayBudget = time.Hour
	sess := r.create(9)
	id := sess.ID()
	e := r.st.lookup(id)
	// crossNext makes the next run's record take the journal past the budget.
	crossNext := func() {
		e.io.Lock()
		r.st.replayBudget = e.cost + time.Nanosecond
		e.io.Unlock()
	}
	stage := func() {
		t.Helper()
		r.stage(sess, session.StageFeedback, `{"budget": 10}`)
	}
	records := func() int { return r.st.Stats().JournalRecords }
	r.bootstrap(sess)
	crossNext()
	stage()
	if n := records(); n != 0 || r.snapshotsWritten() != 2 {
		t.Fatalf("after the second stage: %d records, %d snapshots written; want the journal compacted", n, r.snapshotsWritten())
	}
	r.st.replayBudget = time.Hour
	stage()
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, r.export(sess)) {
		t.Fatal("a record in the fresh journal did not replay over the compaction snapshot")
	}

	// The data directory stops taking new files; the journal's descriptor
	// still writes.
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	crossNext()
	stage()
	if n := records(); n != 2 {
		t.Fatalf("a failed compaction left %d records, want both", n)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	stage()
	if n := records(); n != 0 {
		t.Fatalf("the next stage left %d records, want the journal compacted", n)
	}
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, r.export(sess)) {
		t.Fatal("the compacted pair does not restore the live session")
	}
}

// TestSnapshotsBetweenStages: no snapshot is taken while a stage runs. A
// library stage — one the run engine never sees — is parked mid-body while a
// run of the session finishes and a graceful shutdown begins: nothing is
// written until the stage ends; then the run's record, finding events no
// request accounts for (the parked stage's and an earlier one's), is a
// compaction whose snapshot holds both stages' events; and the directory, as
// that snapshot left it and as the shutdown left it, restores a session that
// exports the live session's bytes.
func TestSnapshotsBetweenStages(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	sess := r.create(10)
	id := sess.ID()
	scratch := func(n int) *relation.Relation {
		rel := relation.New(relation.NewSchema("scratch", "street", "price:float"))
		for i := 0; i < n; i++ {
			rel.MustAppend(fmt.Sprintf("%d High St", i), float64(100*i))
		}
		return rel
	}
	item := func(street string) feedback.Item {
		return feedback.Item{Street: street, Postcode: "M1 1AA", Attr: "price", Observed: relation.Float(100), HasObserved: true}
	}
	if err := step(sess, "seed", func(w *core.Wrangler) error {
		w.KB.PutRelation("scratch", scratch(4))
		w.AddFeedback(item("seeded"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// What each snapshot holds when it lands, and the pair the stage's
	// compaction leaves behind.
	var (
		mu       sync.Mutex
		steps    []string
		events   []int
		atCommit map[string][]byte
	)
	r.st.onStep = func(step string) {
		mu.Lock()
		defer mu.Unlock()
		steps = append(steps, step)
		switch {
		case step == "snapshot":
			f, err := os.Open(r.st.path(id, SnapshotExt))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			snap, err := ReadSessionSnapshot(f)
			if err != nil {
				t.Error(err)
				return
			}
			events = append(events, len(snap.Events))
		case step == "truncate" && atCommit == nil:
			atCommit = map[string][]byte{}
			for _, ext := range []string{SnapshotExt, journalExt} {
				data, err := os.ReadFile(r.st.path(id, ext))
				if err != nil {
					t.Error(err)
				}
				atCommit[ext] = data
			}
		}
	}

	parked, resume, staged := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		staged <- step(sess, "grow", func(w *core.Wrangler) error {
			w.KB.PutRelation("scratch", scratch(5))
			w.AddFeedback(item("before parking"))
			close(parked)
			<-resume
			w.KB.PutRelation("scratch", scratch(6))
			w.AddFeedback(item("after parking"))
			return nil
		})
	}()
	<-parked
	// A run of the session, in flight — its record waits for the stage —
	// before the shutdown begins: a shutdown cancels runs still queued.
	sub, err := r.eng.Submit(context.Background(), id, "noop", func(context.Context) (session.Event, error) {
		return session.Event{Type: session.EventStage, Stage: "noop"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for run, _ := r.eng.Get(sub.ID); run.State != runs.StateRunning; run, _ = r.eng.Get(sub.ID) {
		time.Sleep(time.Millisecond)
	}
	ran := make(chan runs.Run, 1)
	go func() {
		run, _ := sub.Wait(context.Background())
		ran <- run
	}()
	closed := make(chan struct{})
	go func() {
		r.st.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("the shutdown finished while a stage was running")
	case <-ran:
		t.Fatal("a run was recorded while a stage was running")
	case <-time.After(50 * time.Millisecond):
	}
	mu.Lock()
	if len(steps) != 0 {
		t.Fatalf("file-system steps %v while the stage was parked", steps)
	}
	mu.Unlock()
	close(resume)
	if err := <-staged; err != nil {
		t.Fatal(err)
	}
	if run := <-ran; run.State != runs.StateSucceeded {
		t.Fatalf("the run ended %s, want succeeded", run.State)
	}
	<-closed
	want := r.export(sess)

	mu.Lock()
	defer mu.Unlock()
	if len(steps) < 3 || fmt.Sprint(steps[:3]) != "[snapshot-temp snapshot truncate]" {
		t.Fatalf("file-system steps %v, want the run's compaction first", steps)
	}
	if len(events) == 0 || events[0] != 2 {
		t.Fatalf("the snapshot written after the stage holds %v events, want both stages", events)
	}
	if got := boot(t, dir).exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("after the shutdown: recovered %d bytes, the live session exports %d", len(got), len(want))
	}
	committed := t.TempDir()
	for ext, data := range atCommit {
		if err := os.WriteFile(filepath.Join(committed, id+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := boot(t, committed).exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("as the run's compaction left it: recovered %d bytes, the live session exports %d", len(got), len(want))
	}
}

// TestUnreadableJournal: a session whose journal cannot be opened — not a
// journal at all, or one of an unknown format version — is not served after
// boot (session.ErrNotFound, the server's 404), and both of its files are
// left byte for byte as they were, through the boot and a graceful
// shutdown: served, the session would acknowledge stages it cannot journal.
func TestUnreadableJournal(t *testing.T) {
	for _, tc := range []struct{ name, header string }{
		{"foreign header", "NOTAJRNL\x01"},
		{"unknown version", "VADAJRNL\x07"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r := start(t, dir)
			sess := r.create(11)
			r.bootstrap(sess)
			id := sess.ID()
			jpath, spath := r.st.path(id, journalExt), r.st.path(id, SnapshotExt)
			journal, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			copy(journal, tc.header)
			if err := os.WriteFile(jpath, journal, 0o644); err != nil {
				t.Fatal(err)
			}
			snapshot, err := os.ReadFile(spath)
			if err != nil {
				t.Fatal(err)
			}
			unchanged := func(when string) {
				t.Helper()
				for path, want := range map[string][]byte{jpath: journal, spath: snapshot} {
					if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: %s changed (%v)", when, filepath.Base(path), err)
					}
				}
			}

			r2 := boot(t, dir)
			if _, err := r2.st.Get(id); !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("a session whose journal cannot be opened is served: %v", err)
			}
			if n := r2.st.Stats().JournaledSessions; n != 0 {
				t.Fatalf("%d sessions journaled", n)
			}
			unchanged("after the boot")
			r2.eng.Close()
			r2.st.Close()
			unchanged("after a graceful shutdown")
		})
	}
}

// TestJournalConformance is the journal's end-to-end contract: the baseline
// snapshot with the journal's runs replayed over it restores the same
// session as a full capture — result rows, event history (Seq continues),
// feedback items, terminal runs — while the journal costs a fraction of a
// snapshot after every stage.
func TestJournalConformance(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 20
	cfg.Seed = 7
	sc := datagen.Generate(cfg)
	sess, err := r.st.Create(core.BuildScenarioWrangler(sc), session.WithScenario(sc, 7))
	if err != nil {
		t.Fatal(err)
	}
	id := sess.ID()

	// Every run appends one record. Track what durability by snapshot would
	// have cost — one full envelope after every stage — and what the
	// feedback iteration's own record was.
	journalBytes := func() int64 { return r.st.Stats().JournalBytes }
	var snapshotPerStage, feedbackRecord, feedbackSnap int64
	for _, stage := range []struct{ name, payload string }{
		{session.StageBootstrap, ""},
		{session.StageDataContext, ""},
		{session.StageFeedback, `{"budget": 30}`},
		{session.StageUserContext, `{"model": "crime"}`},
	} {
		before := journalBytes()
		r.stage(sess, stage.name, stage.payload)
		size := int64(len(r.export(sess)))
		snapshotPerStage += size
		if stage.name == session.StageFeedback {
			feedbackRecord, feedbackSnap = journalBytes()-before, size
		}
	}
	// Runs without stages are journaled by the workers that finish them too.
	r.idleRun(sess)
	r.idleRun(sess)
	st := r.st.Stats()
	if st.JournalRecords != 6 {
		t.Fatalf("journal records = %d, want 6 (4 stages + 2 runs)", st.JournalRecords)
	}
	// What a record costs, concretely: the whole journal costs a small
	// fraction of a snapshot after every stage, and the steady-state
	// pay-as-you-go iteration — a feedback stage on an established KB —
	// writes a small fraction of the snapshot it replaces.
	if st.JournalBytes*10 >= snapshotPerStage {
		t.Fatalf("journal (%d bytes) not a tenth of a snapshot per stage (%d bytes)", st.JournalBytes, snapshotPerStage)
	}
	if feedbackRecord*10 >= feedbackSnap {
		t.Fatalf("feedback record (%d bytes) not a tenth of the snapshot (%d bytes)", feedbackRecord, feedbackSnap)
	}
	if n := r.snapshotsWritten(); n != 1 {
		t.Fatalf("%d snapshots written, want the baseline only", n)
	}

	// Recovery: the baseline snapshot with the journal replayed (kill -9).
	want := r.export(sess)
	r2 := boot(t, dir)
	if got := r2.exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the live session exports %d", len(got), len(want))
	}
	restored, err := r2.st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Wrangler().FeedbackItems(), sess.Wrangler().FeedbackItems(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("feedback items:\n got %v\nwant %v", got, want)
	}
	// The restored session keeps wrangling and Seq continues.
	if ev := r2.stage(restored, session.StageUserContext, `{"model": "size"}`); ev.Seq != 5 {
		t.Fatalf("post-restore Seq = %d, want 5", ev.Seq)
	}
}

// kbContent is what the session's knowledge base persists as, without the
// version: the content, not the number of changes it took to reach it (a
// restored session's first stage re-derives the cells a restart empties and
// counts more of them).
func kbContent(t *testing.T, sess *session.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sess.Wrangler().KB.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return regexp.MustCompile(`^\{"version":\d+,`).ReplaceAll(buf.Bytes(), []byte("{"))
}

// TestRepeatedFeedbackLiveEqualsRestored: a feedback stage whose items repeat
// earlier ones asserts no new fb_item fact, and is evidence all the same — it
// is assimilated by the stage that carries it, so the live session and the
// one restored from its export are in the same state and stay there.
func TestRepeatedFeedbackLiveEqualsRestored(t *testing.T) {
	ctx := context.Background()
	r := start(t, "")
	live := r.create(3)
	r.bootstrap(live)
	if _, err := live.AddDataContext(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := live.AddFeedback(ctx, nil, 40); err != nil {
		t.Fatal(err)
	}
	items := live.Wrangler().FeedbackItems()
	var wrong []feedback.Item
	for _, it := range items {
		if !it.Correct && it.Attr != "" {
			wrong = append(wrong, it)
		}
	}
	if len(wrong) == 0 {
		t.Fatal("the oracle judged nothing incorrect")
	}
	facts := live.Wrangler().KB.Count(core.PredFeedback)
	ev, err := live.AddFeedback(ctx, append(wrong, wrong...), 0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Wrangler().KB.Count(core.PredFeedback) != facts {
		t.Fatal("the repeated items asserted new fb_item facts: the test no longer covers an all-repeat stage")
	}
	if ev.Steps == 0 {
		t.Error("the stage that repeated earlier items took no steps")
	}

	restored := start(t, "").importEnvelope(r.export(live))
	if got := restored.Wrangler().FeedbackItems(); len(got) != len(items)+2*len(wrong) || !reflect.DeepEqual(got, live.Wrangler().FeedbackItems()) {
		t.Fatalf("restored %d items, the live session holds %d", len(got), len(items)+2*len(wrong))
	}
	for _, sess := range []*session.Session{live, restored} {
		if _, err := sess.SetUserContext(ctx, core.SizeAnalysisUserContext()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := live.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tuples, want.Tuples) {
		t.Errorf("one stage on, the restored session's result differs from the live one's (%d and %d rows)", len(got.Tuples), len(want.Tuples))
	}
	if a, b := kbContent(t, live), kbContent(t, restored); !bytes.Equal(a, b) {
		t.Errorf("one stage on, the knowledge bases differ (%d and %d bytes)", len(a), len(b))
	}
}

// TestRecoverRewritesOlderLayout: a data directory an older binary left —
// feedback items and fingerprints in the snapshot's meta, not in its knowledge
// base — boots, and is rewritten in today's layout before anything is
// journaled over it: the next record's delta starts from the knowledge base
// the restore built, which the old files do not describe.
func TestRecoverRewritesOlderLayout(t *testing.T) {
	dir := t.TempDir()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 20
	cfg.Seed = 4
	old := []feedback.Item{
		{Street: "1 High St", Postcode: "M1 1AA", Attr: "bedrooms", Observed: relation.Int(14), HasObserved: true},
		{Street: "2 Low Rd", Postcode: "M2 2BB", Attr: "price", Correct: true},
	}
	k := kb.New()
	for _, it := range old {
		k.Assert(core.PredFeedback, relation.NewTuple(it.Street, it.Postcode, it.Attr, it.Correct))
	}
	var envelope bytes.Buffer
	if err := WriteSessionSnapshot(&envelope, &SessionSnapshot{
		Meta: Meta{ID: "s-old", Seed: 4, Scenario: &cfg, Options: json.RawMessage(`{"MatchThreshold":0.6,"MaxSteps":500}`),
			Feedback: old, ExecHashes: map[string]uint64{"m_gone": 42}},
		KB: k,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-old"+SnapshotExt), envelope.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	r := boot(t, dir)
	if n := r.snapshotsWritten(); n != 1 {
		t.Fatalf("booting over the older layout wrote %d snapshots, want the rewrite", n)
	}
	f, err := os.Open(r.st.path("s-old", SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSessionSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Options != nil || snap.Meta.Feedback != nil || snap.Meta.ExecHashes != nil || !reflect.DeepEqual(feedback.Items(snap.KB.Relation(feedback.RelItems)), old) {
		t.Fatalf("the rewritten snapshot is not in today's layout: meta %+v", snap.Meta)
	}
	sess, err := r.st.Get("s-old")
	if err != nil {
		t.Fatal(err)
	}
	r.bootstrap(sess)
	fresh := feedback.Item{Street: "3 Mid Ln", Postcode: "M3 3CC", Attr: "price", Observed: relation.Float(1), HasObserved: true}
	payload, err := json.Marshal(session.FeedbackPayload{Items: []feedback.Item{fresh}})
	if err != nil {
		t.Fatal(err)
	}
	r.stage(sess, session.StageFeedback, string(payload))
	want := r.export(sess)

	r2 := boot(t, dir) // the first process is abandoned: kill -9
	if n := r2.snapshotsWritten(); n != 0 {
		t.Fatalf("booting over today's layout wrote %d snapshots", n)
	}
	if got := r2.exportID("s-old"); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the session exported %d before the crash", len(got), len(want))
	}
	again, _ := r2.st.Get("s-old")
	if got := again.Wrangler().FeedbackItems(); !reflect.DeepEqual(got, append(old, fresh)) {
		t.Fatalf("recovered items %v", got)
	}
}

// TestEphemeral: the store over "" accepts every verb and writes nothing.
func TestEphemeral(t *testing.T) {
	r := start(t, "")
	sess := r.create(7)
	r.bootstrap(sess)
	r.idleRun(sess)
	if r.st.Stats() != nil {
		t.Fatal("ephemeral store reports persist stats")
	}
	if err := r.st.Archive(sess.ID()); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Archive(sess.ID()); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("duplicate DELETE: %v", err)
	}
	r.st.Close()
}

// TestRunSeenFollowsSnapshot: the runs a session's files are known to hold
// are those of its last snapshot and of its journal since, no more. Once the
// engine's retention ring has let runs go, a compaction forgets them too, so
// a long-lived session's bookkeeping stays as small as the ring.
func TestRunSeenFollowsSnapshot(t *testing.T) {
	r := start(t, t.TempDir())
	sess := r.create(12)
	// Three times the engine's ring of 512, each finished and journaled.
	const n = 3 * 512
	for i := 0; i < n; i++ {
		now := time.Now()
		run := runs.Run{ID: fmt.Sprintf("r%05d", i), SessionID: sess.ID(), Stage: "noop",
			State: runs.StateSucceeded, CreatedAt: now, FinishedAt: &now}
		r.eng.Adopt([]runs.Run{run})
		r.st.CommitRun(context.Background(), run, nil)
	}
	r.st.replayBudget = time.Nanosecond
	r.bootstrap(sess) // its record crosses the budget: compaction
	f, err := os.Open(r.st.path(sess.ID(), SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSessionSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Runs) == 0 || len(snap.Runs) >= n {
		t.Fatalf("the snapshot holds %d runs: the ring let none of %d go", len(snap.Runs), n)
	}
	e := r.st.lookup(sess.ID())
	e.io.Lock()
	defer e.io.Unlock()
	if len(e.runSeen) != len(snap.Runs) {
		t.Fatalf("the store knows of %d runs in the files, the snapshot holds %d", len(e.runSeen), len(snap.Runs))
	}
	for _, run := range snap.Runs {
		if !e.runSeen[run.ID] {
			t.Fatalf("snapshot run %s is not known to be in the files", run.ID)
		}
	}
}

// TestPoisonedJournalCompacts: a run whose record the journal cannot take —
// its descriptor closed underneath it, so neither the write nor the rewind
// can happen — is compacted into a snapshot instead of lost, and a restart
// holds every event the store acknowledged.
func TestPoisonedJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	sess := r.create(1)
	r.bootstrap(sess)
	e := r.st.lookup(sess.ID())
	e.io.Lock()
	e.j.f.Close()
	e.io.Unlock()
	r.stage(sess, session.StageDataContext, "")
	want := r.export(sess)

	r2 := boot(t, dir)
	restored, err := r2.st.Get(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got, acked := len(restored.Events()), len(sess.Events()); got != acked {
		t.Fatalf("recovered %d events, acknowledged %d", got, acked)
	}
	if got := r2.export(restored); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the session exported %d", len(got), len(want))
	}
}

// logged collects the records a logger writes, for tests that read what a
// boot reported.
type logged struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (l *logged) Enabled(context.Context, slog.Level) bool { return true }
func (l *logged) Handle(_ context.Context, r slog.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, r)
	return nil
}
func (l *logged) WithAttrs([]slog.Attr) slog.Handler { return l }
func (l *logged) WithGroup(string) slog.Handler      { return l }

// errorsFor returns the errors logged about a session.
func (l *logged) errorsFor(id string) []error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []error
	for _, r := range l.recs {
		var session string
		var err error
		r.Attrs(func(a slog.Attr) bool {
			switch a.Key {
			case "session":
				session = a.Value.String()
			case "error":
				err, _ = a.Value.Any().(error)
			}
			return true
		})
		if session == id && err != nil {
			out = append(out, err)
		}
	}
	return out
}

// TestReplayDivergence: a journaled request edited on disk — one feedback
// item's judgement flipped — with the digest its run recorded left alone
// replays to different content. The boot reports that session's typed error
// (ErrReplayDiverged), does not serve it, leaves both of its files as they
// were, and restores every other session in the directory.
func TestReplayDivergence(t *testing.T) {
	dir := t.TempDir()
	r := start(t, dir)
	edited, other := r.create(13), r.create(14)
	for _, sess := range []*session.Session{edited, other} {
		r.bootstrap(sess)
		// Explicit items: the judgements are then the request's own.
		items := core.OracleFeedback(sess.Scenario(), sess.Wrangler().Result(), 20, sess.Seed())
		payload, err := json.Marshal(session.FeedbackPayload{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		r.stage(sess, session.StageFeedback, string(payload))
	}
	want := r.export(other)

	jpath := r.st.path(edited.ID(), journalExt)
	recs := readRecords(t, jpath)
	var p session.FeedbackPayload
	req := &recs[1].Asked.Requests[0]
	if req.Stage != session.StageFeedback || json.Unmarshal(req.Payload, &p) != nil || len(p.Items) == 0 {
		t.Fatalf("the second record is not a feedback stage with items: %+v", recs[1].Asked)
	}
	p.Items[0].Correct = !p.Items[0].Correct
	payload, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	req.Payload = payload
	if err := os.WriteFile(jpath, encodeJournal(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, path := range []string{jpath, r.st.path(edited.ID(), SnapshotExt)} {
		if files[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	log := &logged{}
	r2 := start(t, dir)
	r2.st.Logger = slog.New(log)
	r2.st.Recover()
	if _, err := r2.st.Get(edited.ID()); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("the session whose replay diverged is served: %v", err)
	}
	if errs := log.errorsFor(edited.ID()); len(errs) != 1 || !errors.Is(errs[0], ErrReplayDiverged) {
		t.Fatalf("the boot reported %v for the session, want ErrReplayDiverged", errs)
	}
	if got := r2.exportID(other.ID()); !bytes.Equal(got, want) {
		t.Fatalf("the other session recovered %d bytes, it exported %d", len(got), len(want))
	}
	for path, data := range files {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed (%v)", filepath.Base(path), err)
		}
	}
}

// readRecords reads the valid records of the journal at path.
func readRecords(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(bytes.NewReader(data))
	if err != nil || res.Damaged {
		t.Fatalf("reading %s: %v (damaged %v)", filepath.Base(path), err, res != nil && res.Damaged)
	}
	return res.Records
}

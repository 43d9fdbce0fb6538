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
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/metrics"
	"vada/internal/persist"
	"vada/internal/relation"
	"vada/internal/runs"
	"vada/internal/session"
)

// rig is one process's worth of service around a store — manager, run
// engine, store — wired the way the server wires them, without HTTP.
type rig struct {
	t   *testing.T
	mgr *session.Manager
	eng *runs.Engine
	reg *metrics.Registry
	st  *Store

	// hold, when set, parks every teardown between the manager removing the
	// session and the store releasing it: the mid-DELETE window.
	hold chan struct{}
}

// boot starts a rig over dir and recovers what the directory holds. The
// rig is abandoned, not closed, when the test ends: only Close (called by
// the tests that mean a graceful shutdown) writes anything on the way out.
func boot(t *testing.T, dir string, restoreClosed bool) *rig {
	t.Helper()
	r := start(t, dir)
	r.st.Recover(restoreClosed, r.opts()...)
	return r
}

// start is boot without the recovery pass.
func start(t *testing.T, dir string) *rig {
	t.Helper()
	r := &rig{t: t, reg: metrics.NewRegistry()}
	r.eng = runs.New(runs.WithWorkers(2))
	r.mgr = session.NewManager(
		session.WithStopHook(func(s *session.Session) { r.eng.CancelSession(s.ID()) }),
		session.WithEvictHook(func(s *session.Session) {
			if r.hold != nil {
				<-r.hold
			}
			r.st.Release(s)
		}),
	)
	var err error
	r.st, err = Open(dir, 0, 0, Deps{Manager: r.mgr, Engine: r.eng, Metrics: r.reg,
		Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.eng.Close()
		if r.st.done == nil {
			return // ephemeral: no persister
		}
		r.st.closeOnce.Do(func() { // stop the persister; compact nothing
			close(r.st.done)
			r.st.wg.Wait()
		})
	})
	return r
}

func (r *rig) opts() []session.Option {
	return []session.Option{session.WithStageCommitHook(r.st.Append)}
}

// register builds a small scenario session in the manager without making
// it durable — the state a handler is in between mgr.Create and st.Create.
func (r *rig) register(seed int64) *session.Session {
	r.t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 20
	cfg.Seed = seed
	sc := datagen.Generate(cfg)
	sess, err := r.mgr.Create(core.BuildScenarioWrangler(sc),
		append(r.opts(), session.WithName("t"), session.WithScenario(sc, seed))...)
	if err != nil {
		r.t.Fatal(err)
	}
	return sess
}

// create is what POST /sessions does.
func (r *rig) create(seed int64) *session.Session {
	r.t.Helper()
	sess := r.register(seed)
	if err := r.st.Create(sess); err != nil {
		r.t.Fatal(err)
	}
	return sess
}

// importEnvelope is what POST /sessions/import does.
func (r *rig) importEnvelope(envelope []byte) *session.Session {
	r.t.Helper()
	snap, err := persist.ReadSessionSnapshot(bytes.NewReader(envelope))
	if err != nil {
		r.t.Fatal(err)
	}
	sess, err := persist.RestoreInto(r.mgr, r.eng, snap, r.opts()...)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.st.Create(sess); err != nil {
		r.t.Fatal(err)
	}
	return sess
}

func (r *rig) bootstrap(sess *session.Session) {
	r.t.Helper()
	if _, err := sess.Bootstrap(context.Background()); err != nil {
		r.t.Fatal(err)
	}
}

// idleRun completes a run that leaves the session untouched, so the only
// thing the store has not yet seen is the terminal run itself.
func (r *rig) idleRun(sess *session.Session) {
	r.t.Helper()
	run, err := r.eng.Submit(context.Background(), sess.ID(), "noop", func(context.Context) (session.Event, error) {
		return session.Event{Type: session.EventStage, Stage: "noop"}, nil
	})
	if err != nil {
		r.t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		got, err := r.eng.Get(run.ID)
		if err != nil {
			r.t.Fatal(err)
		}
		if got.State.Terminal() {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("run never finished")
		}
	}
}

// export is the session's full state as the bytes GET .../export serves.
func (r *rig) export(sess *session.Session) []byte {
	r.t.Helper()
	var buf bytes.Buffer
	if err := persist.ExportSession(&buf, sess, r.eng); err != nil {
		r.t.Fatal(err)
	}
	return buf.Bytes()
}

// exportID exports the live session under id, nil when there is none.
func (r *rig) exportID(id string) []byte {
	r.t.Helper()
	sess, err := r.mgr.Get(id)
	if err != nil {
		return nil
	}
	return r.export(sess)
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
// still restorable from closed/ when it had been archived.
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
				sess := r.register(1)
				w.id = sess.ID()
				if err := r.st.Create(sess); err != nil {
					r.t.Fatal(err)
				}
			},
			after: func(r *rig, w *world) []byte { return r.exportID(w.id) },
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
				return boot(t, dir, false), w
			},
			verb: func(r *rig, w *world) {
				envelope := w.before
				w.before = nil
				r.importEnvelope(envelope)
			},
			after: func(r *rig, w *world) []byte { return r.exportID(w.id) },
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
				sess, _ := r.mgr.Get(w.id)
				r.bootstrap(sess)
			},
			// The stage ran in memory before its record was written.
			after: func(r *rig, w *world) []byte { return r.exportID(w.id) },
			steps: []string{"record", "record-sync"},
		},
		{
			name: "compact",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				r.bootstrap(sess)
				r.idleRun(sess)
				r.st.flush(sess.ID()) // the run's record
				return r, &world{id: sess.ID(), before: r.export(sess)}
			},
			verb: func(r *rig, w *world) {
				if err := r.st.Compact(w.id); err != nil {
					r.t.Fatal(err)
				}
			},
			after: func(r *rig, w *world) []byte { return w.before },
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
			name: "restore-closed",
			prepare: func(t *testing.T, dir string) (*rig, *world) {
				r := start(t, dir)
				sess := r.create(1)
				r.bootstrap(sess)
				w := &world{id: sess.ID(), archive: r.export(sess)}
				if err := r.st.Archive(w.id); err != nil {
					t.Fatal(err)
				}
				return start(t, dir), w
			},
			verb:  func(r *rig, w *world) { r.st.Recover(true, r.opts()...) },
			after: func(r *rig, w *world) []byte { return w.archive },
			steps: []string{"journal", "snapshot-temp", "snapshot", "unarchived"},
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
				live := boot(t, dir, false).exportID(w.id)
				switch {
				case finished && !bytes.Equal(live, after):
					t.Fatalf("%s: recovered state is not the acknowledged one (%d bytes, want %d)", at, len(live), len(after))
				case !bytes.Equal(live, w.before) && !bytes.Equal(live, after):
					t.Fatalf("%s: recovered %d bytes: neither the state before the verb (%d) nor after it (%d)",
						at, len(live), len(w.before), len(after))
				}
				// A -restore-closed boot: what is live stays as it is, and what
				// is not comes back from the archive.
				want := live
				if want == nil {
					want = w.archive
				}
				if got := boot(t, dir, true).exportID(w.id); !bytes.Equal(got, want) {
					t.Fatalf("%s: -restore-closed boot recovered %d bytes, want %d", at, len(got), len(want))
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
// touched: renamed as it is, not rewritten) or had to be brought up to date
// (a journaled stage; a terminal run the journal never saw).
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
		{"terminal run not yet journaled", func(r *rig) *session.Session {
			sess := r.create(2)
			r.idleRun(sess)
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
			if got := boot(t, dir, false).exportID(id); got != nil {
				t.Fatal("archived session came back on a default boot")
			}
			r2 := boot(t, dir, true)
			if got := r2.exportID(id); !bytes.Equal(got, want) {
				t.Fatalf("restored archive exports %d bytes, pre-DELETE export was %d", len(got), len(want))
			}
			if exists(filepath.Join(dir, closedDir, id+SnapshotExt)) {
				t.Fatal("archive still under closed/ after it was restored live")
			}
			// Live again means durable again: a further boot needs no archive.
			if got := boot(t, dir, false).exportID(id); !bytes.Equal(got, want) {
				t.Fatal("unarchived session is not durable as a live session")
			}
		})
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

	// DELETE the session and park its teardown before the store sees it.
	r.hold = make(chan struct{})
	deleted := make(chan error, 1)
	go func() { deleted <- r.st.Archive(id) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := r.mgr.Get(id); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("DELETE never removed the session from the manager")
		}
	}
	if err := r.st.Archive(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("duplicate DELETE mid-teardown: %v, want not found", err)
	}
	fresh := r.importEnvelope(envelope)
	want := r.export(fresh)
	close(r.hold)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	if exists(filepath.Join(dir, closedDir, id+SnapshotExt)) {
		t.Fatal("the superseded session's teardown archived over the new session")
	}
	if got := boot(t, dir, false).exportID(id); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the imported session exported %d", len(got), len(want))
	}
	// The new session journals on: the old teardown did not close its journal.
	r.bootstrap(fresh)
	if got := boot(t, dir, false).exportID(id); !bytes.Equal(got, r.export(fresh)) {
		t.Fatal("a stage of the new session was not journaled")
	}

	// DELETE it for good; a second DELETE finds nothing and resurrects nothing.
	r.hold = nil
	if err := r.st.Archive(id); err != nil {
		t.Fatal(err)
	}
	if err := r.st.Archive(id); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("duplicate DELETE: %v, want not found", err)
	}
	if exists(r.st.path(id, SnapshotExt)) || exists(r.st.path(id, journalExt)) {
		t.Fatal("duplicate DELETE brought the live pair back")
	}
	if n := boot(t, dir, false).mgr.Len(); n != 0 {
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
	if got := boot(t, dir, false).exportID(id); !bytes.Equal(got, want) {
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
	sess := r.register(4)
	if err := r.st.Create(sess); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Create into a regular file: %v, want ErrNotDurable", err)
	}
	if st := r.st.Stats(); st.JournaledSessions != 0 {
		t.Fatalf("failed Create left %d sessions registered", st.JournaledSessions)
	}
	// The caller closes the session it could not make durable; the teardown
	// finds nothing to write.
	if err := r.mgr.Close(sess.ID()); err != nil {
		t.Fatal(err)
	}

	hostile := session.New("../escape", core.NewWrangler())
	if err := start(t, t.TempDir()).st.Create(hostile); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Create of a path-escaping ID: %v, want ErrNotDurable", err)
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

	if ids := r.mgr.EvictIdle(0); len(ids) != 2 {
		// Both are idle by now; evict them one way or the other below.
		t.Fatalf("evicted %v, want both sessions", ids)
	}
	for _, id := range []string{a.ID(), b.ID()} {
		if info, err := os.Stat(r.st.path(id, journalExt)); err != nil || info.Size() != 9 {
			t.Fatalf("journal of evicted %s not truncated to its header: %v", id, err)
		}
	}
	r2 := boot(t, dir, false)
	if !bytes.Equal(r2.exportID(a.ID()), wantA) || !bytes.Equal(r2.exportID(b.ID()), wantB) {
		t.Fatal("evicted sessions did not recover to their final state")
	}
	sa, _ := r2.mgr.Get(a.ID())
	if _, err := sa.AddDataContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
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
	if got := boot(t, dir, false).exportID(a.ID()); !bytes.Equal(got, wantA) {
		t.Fatal("state after a graceful shutdown is not the final state")
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
	ctx := context.Background()
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
	if err := persist.WriteSessionSnapshot(&envelope, &persist.SessionSnapshot{
		Meta: persist.Meta{ID: "s-old", Seed: 4, Scenario: &cfg, Options: json.RawMessage(`{"MatchThreshold":0.6,"MaxSteps":500}`),
			Feedback: old, ExecHashes: map[string]uint64{"m_gone": 42}},
		KB: k,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "s-old"+SnapshotExt), envelope.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	r := boot(t, dir, false)
	if n := r.snapshotsWritten(); n != 1 {
		t.Fatalf("booting over the older layout wrote %d snapshots, want the rewrite", n)
	}
	f, err := os.Open(r.st.path("s-old", SnapshotExt))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.ReadSessionSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.Options != nil || snap.Meta.Feedback != nil || snap.Meta.ExecHashes != nil || !reflect.DeepEqual(feedback.Items(snap.KB.Relation(feedback.RelItems)), old) {
		t.Fatalf("the rewritten snapshot is not in today's layout: meta %+v", snap.Meta)
	}
	sess, err := r.mgr.Get("s-old")
	if err != nil {
		t.Fatal(err)
	}
	r.bootstrap(sess)
	fresh := feedback.Item{Street: "3 Mid Ln", Postcode: "M3 3CC", Attr: "price", Observed: relation.Float(1), HasObserved: true}
	if _, err := sess.AddFeedback(ctx, []feedback.Item{fresh}, 0); err != nil {
		t.Fatal(err)
	}
	want := r.export(sess)

	r2 := boot(t, dir, false) // the first process is abandoned: kill -9
	if n := r2.snapshotsWritten(); n != 0 {
		t.Fatalf("booting over today's layout wrote %d snapshots", n)
	}
	if got := r2.exportID("s-old"); !bytes.Equal(got, want) {
		t.Fatalf("recovered %d bytes, the session exported %d before the crash", len(got), len(want))
	}
	again, _ := r2.mgr.Get("s-old")
	if got := again.Wrangler().FeedbackItems(); !reflect.DeepEqual(got, append(old, fresh)) {
		t.Fatalf("recovered items %v", got)
	}
}

// TestEphemeral: the store over "" accepts every verb and writes nothing.
func TestEphemeral(t *testing.T) {
	r := start(t, "")
	sess := r.create(7)
	r.bootstrap(sess)
	r.st.AppendRuns(sess.ID())
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

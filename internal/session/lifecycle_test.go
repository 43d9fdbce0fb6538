package session_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/metrics"
	"vada/internal/runs"
	"vada/internal/session"
	"vada/internal/store"
)

// A session's life — the cap, the creation-order listing, idle eviction
// and the teardown — is kept by the store's table of live sessions. These
// tests hold that table to the session contract from outside the store,
// over an ephemeral store and a durable one.

// maxConcurrentTeardowns is the store's bound on the teardowns one sweep
// runs at once.
const maxConcurrentTeardowns = 8

// rig is a run engine and a store wired the way the server wires them.
type rig struct {
	t   *testing.T
	dir string
	eng *runs.Engine
	reg *metrics.Registry
	st  *store.Store
}

// open starts a rig over dir ("" for an ephemeral store) serving at most
// maxSessions sessions (the store's default when not positive).
func open(t *testing.T, dir string, maxSessions int) *rig {
	t.Helper()
	r := &rig{t: t, dir: dir, reg: metrics.NewRegistry()}
	r.eng = runs.New(runs.WithWorkers(2), runs.WithObserver(runs.Observer{
		Record: r.commitRun,
	}))
	var err error
	r.st, err = store.Open(dir, maxSessions, store.Deps{Engine: r.eng, Metrics: r.reg, Logger: slog.New(slog.DiscardHandler)})
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

// eachStore runs fn over an ephemeral rig and a durable one.
func eachStore(t *testing.T, maxSessions int, fn func(t *testing.T, r *rig)) {
	t.Run("ephemeral", func(t *testing.T) { fn(t, open(t, "", maxSessions)) })
	t.Run("durable", func(t *testing.T) { fn(t, open(t, t.TempDir(), maxSessions)) })
}

// blank creates a session over an empty wrangler.
func (r *rig) blank() *session.Session {
	r.t.Helper()
	sess, err := r.st.Create(core.NewWrangler())
	if err != nil {
		r.t.Fatal(err)
	}
	return sess
}

// reimported is sess's export under another ID, last active an hour ago.
func (r *rig) reimported(sess *session.Session, id string) *store.SessionSnapshot {
	r.t.Helper()
	var buf bytes.Buffer
	if err := store.ExportSession(&buf, sess, r.eng); err != nil {
		r.t.Fatal(err)
	}
	snap, err := store.ReadSessionSnapshot(&buf)
	if err != nil {
		r.t.Fatal(err)
	}
	snap.Meta.ID = id
	snap.Meta.LastActive = time.Now().Add(-time.Hour)
	return snap
}

// park holds sess's run mutex until the returned release is called, as a
// stage in flight would.
func park(sess *session.Session) (release func()) {
	parked, done := make(chan struct{}), make(chan struct{})
	go sess.BetweenStages(func() {
		close(parked)
		<-done
	})
	<-parked
	return func() { close(done) }
}

// files lists every file under dir with its size and modification time.
// It reports a failure with t.Error, so a stage may call it.
func files(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	if dir == "" {
		return out
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = fmt.Sprint(info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	return out
}

func ids(sessions []*session.Session) []string {
	out := make([]string, len(sessions))
	for i, s := range sessions {
		out[i] = s.ID()
	}
	return out
}

// TestManagerCapAndList: the cap turns creates away, IDs are unique, the
// listing is in creation order, a DELETE frees the slot and a DELETE of an
// unknown ID is not-found.
func TestManagerCapAndList(t *testing.T) {
	eachStore(t, 2, func(t *testing.T, r *rig) {
		a, b := r.blank(), r.blank()
		if a.ID() == b.ID() {
			t.Fatal("duplicate session IDs")
		}
		if _, err := r.st.Create(core.NewWrangler()); !errors.Is(err, session.ErrLimit) {
			t.Fatalf("create over the cap: %v, want ErrLimit", err)
		}
		if got, want := fmt.Sprint(ids(r.st.List())), fmt.Sprint([]string{a.ID(), b.ID()}); got != want {
			t.Fatalf("List = %s, want %s", got, want)
		}
		if err := r.st.Archive(a.ID()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.st.Create(core.NewWrangler()); err != nil {
			t.Fatalf("create after a DELETE freed a slot: %v", err)
		}
		if err := r.st.Archive("nope"); !errors.Is(err, session.ErrNotFound) {
			t.Fatalf("DELETE of an unknown ID: %v, want ErrNotFound", err)
		}
	})
}

// TestManagerRestore: an imported session keeps its identity, lifetimes and
// history; an import over a live ID is a conflict rather than a
// replacement; the cap applies to imports, each rejection counted; and
// imported sessions join the listing in the order they arrive.
func TestManagerRestore(t *testing.T) {
	eachStore(t, 2, func(t *testing.T, r *rig) {
		src := r.blank()
		if _, err := src.Bootstrap(context.Background()); err != nil {
			t.Fatal(err)
		}
		created := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
		active := created.Add(time.Hour)
		snap := r.reimported(src, "s0001-restored")
		snap.Meta.CreatedAt, snap.Meta.LastActive = created, active
		sess, err := r.st.Import(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.st.Get("s0001-restored")
		if err != nil || got != sess {
			t.Fatalf("Get of the imported session: %v, %v", got, err)
		}
		if !got.CreatedAt().Equal(created) || !got.LastActive().Equal(active) {
			t.Fatalf("imported times = %v / %v, want %v / %v", got.CreatedAt(), got.LastActive(), created, active)
		}
		if evs := got.Events(); len(evs) != 1 || evs[0].Stage != session.StageBootstrap {
			t.Fatalf("imported events = %v", evs)
		}
		if _, err := r.st.Import(r.reimported(src, "s0001-restored")); !errors.Is(err, session.ErrExists) {
			t.Fatalf("import over a live ID: %v, want ErrExists", err)
		}
		if _, err := r.st.Import(r.reimported(src, "other-1")); !errors.Is(err, session.ErrLimit) {
			t.Fatalf("import over the cap: %v, want ErrLimit", err)
		}
		if got := r.reg.Counter("sessions_rejected_total").Value(); got != 1 {
			t.Fatalf("sessions_rejected_total = %d, want 1", got)
		}
		if got, want := fmt.Sprint(ids(r.st.List())), fmt.Sprint([]string{src.ID(), "s0001-restored"}); got != want {
			t.Fatalf("List = %s, want %s", got, want)
		}
	})
}

// TestRestoreRejectedCounted: sessions a boot finds past the cap stay on
// disk, unserved, and are counted like any other rejection; a rejected
// restore holds no slot.
func TestRestoreRejectedCounted(t *testing.T) {
	dir := t.TempDir()
	r := open(t, dir, 0)
	r.blank()
	r.blank()
	r.blank()
	r2 := open(t, dir, 2)
	r2.st.Recover()
	if n := r2.st.Len(); n != 2 {
		t.Fatalf("%d sessions recovered under a cap of 2", n)
	}
	if got := r2.reg.Counter("sessions_rejected_total").Value(); got != 1 {
		t.Fatalf("sessions_rejected_total = %d, want 1", got)
	}
	r3 := open(t, dir, 0)
	r3.st.Recover()
	if n := r3.st.Len(); n != 3 {
		t.Fatalf("a boot without the cap recovered %d sessions, want 3", n)
	}
	live := r2.st.List()
	if err := r2.st.Archive(live[0].ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.st.Import(r2.reimported(live[1], "s9999-restored")); err != nil {
		t.Fatalf("import after freeing a slot: %v", err)
	}
}

// TestListCreationOrderAcrossShards pins the listing contract (the name
// dates from a striped table): creation order, whatever order the table
// iterates in, kept across deletes, with an imported session at the end.
func TestListCreationOrderAcrossShards(t *testing.T) {
	eachStore(t, 0, func(t *testing.T, r *rig) {
		var want []string
		for range 20 {
			want = append(want, r.blank().ID())
		}
		for _, i := range []int{3, 7, 11} {
			if err := r.st.Archive(want[i]); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want[:3], append(want[4:7], append(want[8:11], want[12:]...)...)...)
		last, _ := r.st.Get(want[0])
		imported, err := r.st.Import(r.reimported(last, "s9999-imported"))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, imported.ID())
		if got := ids(r.st.List()); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("List = %v, want %v", got, want)
		}
	})
}

// TestListAllocationsBounded: listing allocates its result and nothing that
// grows with the number of sessions beyond it.
func TestListAllocationsBounded(t *testing.T) {
	r := open(t, "", 256)
	for range 256 {
		r.blank()
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := len(r.st.List()); got != 256 {
			t.Fatalf("List len = %d", got)
		}
	})
	if allocs > 8 {
		t.Fatalf("List allocations = %.0f, want <= 8", allocs)
	}
}

// TestEvictIdle: only sessions idle past the bound are evicted, their IDs
// answered sorted and their sessions closed, and each stays restorable.
func TestEvictIdle(t *testing.T) {
	eachStore(t, 0, func(t *testing.T, r *rig) {
		fresh := r.blank()
		var stale []*session.Session
		for _, id := range []string{"s9999-b", "s9999-a"} {
			sess, err := r.st.Import(r.reimported(fresh, id))
			if err != nil {
				t.Fatal(err)
			}
			stale = append(stale, sess)
		}
		got := r.st.EvictIdle(time.Minute)
		if fmt.Sprint(got) != fmt.Sprint([]string{"s9999-a", "s9999-b"}) {
			t.Fatalf("evicted %v, want the two idle sessions, sorted", got)
		}
		if ids := ids(r.st.List()); len(ids) != 1 || ids[0] != fresh.ID() || r.st.Len() != 1 {
			t.Fatalf("live after eviction: %v (%d), want only %s", ids, r.st.Len(), fresh.ID())
		}
		for _, sess := range stale {
			if _, err := sess.Bootstrap(context.Background()); !errors.Is(err, session.ErrClosed) {
				t.Fatalf("evicted %s still runs stages: %v", sess.ID(), err)
			}
		}
		if r.dir == "" {
			return
		}
		rebooted := open(t, r.dir, 0)
		rebooted.st.Recover()
		for _, sess := range stale {
			if _, err := rebooted.st.Get(sess.ID()); err != nil {
				t.Fatalf("evicted %s is not restorable: %v", sess.ID(), err)
			}
		}
	})
}

// TestEvictIdleConcurrentTeardown: one sweep tears down
// maxConcurrentTeardowns sessions at once and never more; a session stuck
// in its quiesce holds up only its own slot.
func TestEvictIdleConcurrentTeardown(t *testing.T) {
	eachStore(t, 0, func(t *testing.T, r *rig) {
		const n = maxConcurrentTeardowns + 2
		var releases []func()
		var closed []<-chan session.Event
		for range n {
			sess := r.blank()
			_, events, _ := sess.Subscribe()
			closed = append(closed, events)
			releases = append(releases, park(sess))
		}
		done := make(chan []string, 1)
		go func() { done <- r.st.EvictIdle(-time.Second) }()

		// A teardown closes its session first, then waits for the parked
		// stage: count the sessions closed while every stage is held.
		torn := make([]bool, n)
		inFlight := func() (k int) {
			for i, ch := range closed {
				select {
				case _, open := <-ch:
					torn[i] = torn[i] || !open
				default:
				}
				if torn[i] {
					k++
				}
			}
			return k
		}
		for deadline := time.Now().Add(10 * time.Second); inFlight() < maxConcurrentTeardowns; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d teardowns running concurrently", inFlight(), maxConcurrentTeardowns)
			}
		}
		time.Sleep(50 * time.Millisecond)
		if k := inFlight(); k > maxConcurrentTeardowns {
			t.Fatalf("%d teardowns running at once, want at most %d", k, maxConcurrentTeardowns)
		}
		for _, release := range releases {
			release()
		}
		got := <-done
		if len(got) != n {
			t.Fatalf("evicted %d sessions, want %d", len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("evicted IDs not sorted: %q >= %q", got[i-1], got[i])
			}
		}
		if r.st.Len() != 0 || len(r.st.List()) != 0 {
			t.Fatalf("%d sessions live after a full eviction", r.st.Len())
		}
	})
}

// TestTeardownHookOrdering: a departing session's runs are cancelled while
// its stage is still in flight, before the teardown waits for that stage,
// and its files are written only once the stage has unwound.
func TestTeardownHookOrdering(t *testing.T) {
	eachStore(t, 0, func(t *testing.T, r *rig) {
		sess := r.blank()
		before := files(t, r.dir)
		entered := make(chan struct{})
		var atUnwind map[string]string
		if _, err := r.eng.Submit(context.Background(), sess.ID(), "slow", func(ctx context.Context) (session.Event, error) {
			return sess.Step(ctx, "slow", func(*core.Wrangler) error {
				close(entered)
				<-ctx.Done() // only the teardown's cancellation ends the stage
				atUnwind = files(t, r.dir)
				return ctx.Err()
			})
		}); err != nil {
			t.Fatal(err)
		}
		<-entered
		deleted := make(chan error, 1)
		go func() { deleted <- r.st.Archive(sess.ID()) }()
		select {
		case err := <-deleted:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the teardown waited for the stage without cancelling it")
		}
		if fmt.Sprint(atUnwind) != fmt.Sprint(before) {
			t.Fatalf("files written before the stage unwound:\nbefore %v\nunwind %v", before, atUnwind)
		}
		if after := files(t, r.dir); r.dir != "" && fmt.Sprint(after) == fmt.Sprint(before) {
			t.Fatal("the DELETE wrote no file")
		}
	})
}

// TestManagerMetrics: the population series across create, cap rejection,
// DELETE and idle eviction.
func TestManagerMetrics(t *testing.T) {
	eachStore(t, 1, func(t *testing.T, r *rig) {
		gauge := func() int64 { return r.reg.Gauge("sessions_live").Value() }
		counter := func(name string) int64 { return r.reg.Counter(name).Value() }
		sess := r.blank()
		if _, err := r.st.Create(core.NewWrangler()); !errors.Is(err, session.ErrLimit) {
			t.Fatalf("expected ErrLimit, got %v", err)
		}
		if counter("sessions_rejected_total") != 1 || gauge() != 1 || counter("sessions_created_total") != 1 {
			t.Fatalf("after a create and a rejection: %v", r.reg.Snapshot())
		}
		if err := r.st.Archive(sess.ID()); err != nil {
			t.Fatal(err)
		}
		if counter("sessions_closed_total") != 1 || gauge() != 0 {
			t.Fatalf("after a DELETE: %v", r.reg.Snapshot())
		}
		r.blank()
		if evicted := r.st.EvictIdle(-time.Second); len(evicted) != 1 {
			t.Fatalf("evicted %v, want one", evicted)
		}
		if counter("sessions_evicted_total") != 1 || gauge() != 0 || counter("sessions_created_total") != 2 {
			t.Fatalf("after an eviction: %v", r.reg.Snapshot())
		}
	})
}

// TestManagerStress hammers Create, Get, Archive, EvictIdle and List
// concurrently; run it with -race. No session is lost or removed twice
// (created = deleted + evicted once everything is swept), listings stay in
// creation order mid-churn, and a deleted session fails with ErrClosed.
func TestManagerStress(t *testing.T) {
	eachStore(t, 0, func(t *testing.T, r *rig) {
		var created, deleted, evicted atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		spawn := func(n int, fn func(rng *rand.Rand)) {
			for g := range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					for !stop.Load() {
						fn(rng)
					}
				}()
			}
		}
		spawn(4, func(rng *rand.Rand) {
			_, err := r.st.Create(core.NewWrangler())
			switch {
			case err == nil:
				created.Add(1)
			case errors.Is(err, session.ErrLimit):
				time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
			default:
				t.Errorf("create: %v", err)
			}
		})
		spawn(3, func(rng *rand.Rand) {
			live := r.st.List()
			if len(live) == 0 {
				return
			}
			sess := live[rng.Intn(len(live))]
			switch err := r.st.Archive(sess.ID()); {
			case err == nil:
				deleted.Add(1)
				if _, err := sess.Bootstrap(context.Background()); !errors.Is(err, session.ErrClosed) {
					t.Errorf("use after DELETE: %v, want ErrClosed", err)
				}
			case !errors.Is(err, session.ErrNotFound):
				t.Errorf("DELETE: %v", err)
			}
		})
		spawn(1, func(*rand.Rand) {
			evicted.Add(int64(len(r.st.EvictIdle(-time.Second))))
			time.Sleep(time.Millisecond)
		})
		spawn(2, func(*rand.Rand) {
			live := r.st.List()
			var last int
			for i, sess := range live {
				var seq int
				if _, err := fmt.Sscanf(sess.ID(), "s%d-", &seq); err != nil {
					t.Errorf("session ID %q: %v", sess.ID(), err)
				}
				if i > 0 && seq <= last {
					t.Errorf("List out of creation order at %d: %d after %d", i, seq, last)
				}
				last = seq
				if _, err := r.st.Get(sess.ID()); err != nil && !errors.Is(err, session.ErrNotFound) {
					t.Errorf("get %q: %v", sess.ID(), err)
				}
			}
		})
		time.Sleep(300 * time.Millisecond)
		stop.Store(true)
		wg.Wait()

		evicted.Add(int64(len(r.st.EvictIdle(-time.Second))))
		if n := r.st.Len(); n != 0 {
			t.Fatalf("Len after the final sweep = %d", n)
		}
		if got, want := deleted.Load()+evicted.Load(), created.Load(); got != want {
			t.Fatalf("deleted %d + evicted %d = %d, want created %d", deleted.Load(), evicted.Load(), got, want)
		}
		snap := r.reg.Snapshot()
		if got := snap.Gauges["sessions_live"]; got != 0 {
			t.Fatalf("sessions_live after the final sweep = %d", got)
		}
		if got := snap.Counters["sessions_created_total"]; got != created.Load() {
			t.Fatalf("sessions_created_total = %d, want %d", got, created.Load())
		}
		if got := snap.Counters["sessions_closed_total"] + snap.Counters["sessions_evicted_total"]; got != created.Load() {
			t.Fatalf("removal counters = %d, want %d", got, created.Load())
		}
	})
}

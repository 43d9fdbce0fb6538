package session

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vada/internal/core"
	"vada/internal/metrics"
)

// TestRestoreRejectedCounted pins the cap-rejection metric for Restore:
// boot-time restores turned away at the cap must be as visible in metricz
// as Create rejections.
func TestRestoreRejectedCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := NewManager(WithMaxSessions(1), WithManagerMetrics(reg))
	if _, err := mgr.Create(core.NewWrangler()); err != nil {
		t.Fatal(err)
	}
	err := mgr.Restore(New("s9999-restored", core.NewWrangler()))
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("restore at cap err = %v, want ErrLimit", err)
	}
	if got := reg.Counter("sessions_rejected_total").Value(); got != 1 {
		t.Fatalf("sessions_rejected_total after rejected restore = %d, want 1", got)
	}
	// A rejected restore must not leak a cap reservation.
	if err := mgr.Close(mgr.List()[0].ID()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Restore(New("s9999-restored", core.NewWrangler())); err != nil {
		t.Fatalf("restore after freeing a slot: %v", err)
	}
}

// TestListCreationOrderAcrossShards pins the listing contract (the name
// dates from a striped table): creation order is stable whatever order the
// map iterates in, and survives interleaved closes and restores.
func TestListCreationOrderAcrossShards(t *testing.T) {
	mgr := NewManager()
	var want []string
	for i := 0; i < 20; i++ {
		s, err := mgr.Create(core.NewWrangler())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s.ID())
	}
	// Remove a few from the middle; order of the rest must hold.
	for _, i := range []int{3, 7, 11} {
		if err := mgr.Close(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	want = append(want[:3], append(want[4:7], append(want[8:11], want[12:]...)...)...)
	// A restored session lands at the end of the creation order.
	restored := New("s9999-restored", core.NewWrangler())
	if err := mgr.Restore(restored); err != nil {
		t.Fatal(err)
	}
	want = append(want, restored.ID())

	got := mgr.List()
	if len(got) != len(want) {
		t.Fatalf("List len = %d, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.ID() != want[i] {
			t.Fatalf("List[%d] = %q, want %q", i, s.ID(), want[i])
		}
	}
}

// TestListAllocationsBounded pins the alloc-free list path: List must not
// snapshot per-call index maps, so its allocation count stays small and
// independent of the session population.
func TestListAllocationsBounded(t *testing.T) {
	mgr := NewManager(WithMaxSessions(256))
	for i := 0; i < 256; i++ {
		if _, err := mgr.Create(core.NewWrangler()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got := len(mgr.List()); got != 256 {
			t.Fatalf("List len = %d", got)
		}
	})
	// Result slice plus sort.Slice scaffolding; anything that scales with
	// the population (the old order-map copy) blows well past this.
	if allocs > 8 {
		t.Fatalf("List allocations = %.0f, want <= 8", allocs)
	}
}

// TestEvictIdleConcurrentTeardown pins bounded-concurrent eviction: all
// hooks of one sweep must be able to rendezvous, which is impossible under
// the old serial teardown loop.
func TestEvictIdleConcurrentTeardown(t *testing.T) {
	const n = 4 // must be <= maxConcurrentTeardowns for the barrier to pass
	arrived := make(chan string, n)
	release := make(chan struct{})
	mgr := NewManager(WithEvictHook(func(s *Session) {
		arrived <- s.ID()
		<-release
	}))
	past := time.Now().Add(-time.Hour)
	var want []string
	for i := 0; i < n; i++ {
		s, err := mgr.Create(core.NewWrangler(), WithRestored(past, past, nil))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, s.ID())
	}

	done := make(chan []string, 1)
	go func() { done <- mgr.EvictIdle(time.Minute) }()

	// All n evict hooks must be in flight at once; serial teardown would
	// park the sweep inside the first hook and time out here.
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d teardowns running concurrently", i, n)
		}
	}
	close(release)

	ids := <-done
	if len(ids) != n {
		t.Fatalf("evicted %d sessions, want %d", len(ids), n)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("evicted IDs not sorted: %q >= %q", ids[i-1], ids[i])
		}
	}
	for _, id := range want {
		if _, err := mgr.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("evicted session %q still resolvable (err=%v)", id, err)
		}
	}
	if mgr.Len() != 0 {
		t.Fatalf("Len after full eviction = %d", mgr.Len())
	}
}

// TestManagerStress hammers Create/Get/Close/EvictIdle/List
// concurrently. Run with -race -shuffle=on. Invariants: no session is lost
// or double-removed (created == closed + evicted + live at the end),
// listings stay in strict creation order mid-churn, and use-after-close
// fails with ErrClosed — never a panic.
func TestManagerStress(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := NewManager(WithMaxSessions(64), WithManagerMetrics(reg))

	var (
		created atomic.Int64
		closed  atomic.Int64
		evicted atomic.Int64
		stop    atomic.Bool
	)
	ctx := context.Background()
	var wg sync.WaitGroup

	// Creators: register sessions as fast as the cap allows.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				_, err := mgr.Create(core.NewWrangler())
				switch {
				case err == nil:
					created.Add(1)
				case errors.Is(err, ErrLimit):
					// cap pressure from the other creators; back off
					time.Sleep(time.Duration(rng.Intn(50)) * time.Microsecond)
				default:
					t.Errorf("create: %v", err)
					return
				}
			}
		}(int64(g))
	}

	// Closers: pick arbitrary live sessions and close them, then poke the
	// closed session to confirm ErrClosed (never a panic).
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for !stop.Load() {
				live := mgr.List()
				if len(live) == 0 {
					continue
				}
				s := live[rng.Intn(len(live))]
				err := mgr.Close(s.ID())
				if err == nil {
					closed.Add(1)
					if _, err := s.Bootstrap(ctx); !errors.Is(err, ErrClosed) {
						t.Errorf("use after close: err = %v, want ErrClosed", err)
					}
					continue
				}
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("close: %v", err)
					return
				}
			}
		}(int64(g))
	}

	// Evictor: periodic sweeps that race the closers for the same sessions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			evicted.Add(int64(len(mgr.EvictIdle(-time.Second))))
			time.Sleep(time.Millisecond)
		}
	}()

	// Listers: creation order must be strictly increasing mid-churn, and
	// Get on a listed ID must never error with anything but ErrNotFound.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				live := mgr.List()
				for i := 1; i < len(live); i++ {
					if live[i-1].mgrSeq >= live[i].mgrSeq {
						t.Errorf("List out of creation order at %d: seq %d >= %d",
							i, live[i-1].mgrSeq, live[i].mgrSeq)
						return
					}
				}
				for _, s := range live {
					if _, err := mgr.Get(s.ID()); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("get %q: %v", s.ID(), err)
						return
					}
				}
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Final sweep: everything still live is evictable, so the ledger must
	// balance exactly — no lost sessions, no double removals.
	evicted.Add(int64(len(mgr.EvictIdle(-time.Second))))
	if mgr.Len() != 0 {
		t.Fatalf("Len after final sweep = %d", mgr.Len())
	}
	if got, want := closed.Load()+evicted.Load(), created.Load(); got != want {
		t.Fatalf("session ledger: closed %d + evicted %d = %d, want created %d",
			closed.Load(), evicted.Load(), got, want)
	}
	snap := reg.Snapshot()
	if got := snap.Gauges["sessions_live"]; got != 0 {
		t.Fatalf("sessions_live after drain = %d", got)
	}
	if got := snap.Counters["sessions_created_total"]; got != created.Load() {
		t.Fatalf("sessions_created_total = %d, want %d", got, created.Load())
	}
	removed := snap.Counters["sessions_closed_total"] + snap.Counters["sessions_evicted_total"]
	if removed != created.Load() {
		t.Fatalf("removal counters = %d, want %d", removed, created.Load())
	}
}

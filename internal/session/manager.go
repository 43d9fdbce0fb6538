package session

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vada/internal/core"
	"vada/internal/metrics"
)

// shardCount is the stripe count of the session table. Sixteen stripes keep
// lock contention negligible for the session counts a single node serves
// while costing sixteen empty maps at rest.
const shardCount = 16

// maxConcurrentTeardowns bounds the teardown fan-out in EvictIdle so a
// large eviction sweep cannot spawn an unbounded goroutine burst, while one
// session stuck in quiesce or a slow evict hook no longer serialises the
// rest of the sweep behind it.
const maxConcurrentTeardowns = 8

// shard is one stripe of the session table. Each shard has its own lock, so
// operations on sessions that hash to different stripes never contend.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
}

// Manager serves many independent sessions: create, look up, list and close
// by ID, concurrency-safe, with a configurable session cap and an idle
// eviction hook. The session table is striped across shardCount shards by
// session-ID hash — each shard has its own mutex — and the cap and live gauge are
// maintained on an atomic counter, so no operation takes a global lock.
// Wrangling work happens under the individual session's lock, so sessions
// proceed fully in parallel.
type Manager struct {
	maxSessions int
	stopHooks   []func(*Session)
	evictHooks  []func(*Session)
	reg         *metrics.Registry

	shards []shard
	seq    atomic.Uint64 // creation sequence, monotonic across shards
	live   atomic.Int64  // registered sessions; authoritative for the cap
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithMaxSessions caps the number of live sessions (0 = unlimited).
// Create fails with ErrLimit at the cap.
func WithMaxSessions(n int) ManagerOption {
	return func(m *Manager) { m.maxSessions = n }
}

// WithStopHook installs a callback invoked (outside the manager lock) for
// every session removed by Close or EvictIdle, immediately after the
// session is marked closed and BEFORE the manager waits for its in-flight
// stage to finish. This is the place to interrupt outstanding work — a
// service cancels the session's async runs here — so the wait is short.
// Hooks compose in installation order.
func WithStopHook(hook func(*Session)) ManagerOption {
	return func(m *Manager) { m.stopHooks = append(m.stopHooks, hook) }
}

// WithEvictHook installs a callback invoked (outside the manager lock) for
// every session removed by Close or EvictIdle. Hooks compose: repeating the
// option adds another callback, run in installation order.
//
// Evict hooks run only after the session has quiesced — the stop hooks have
// fired and any in-flight stage has released the session — so a hook that
// persists the session always observes the final KB version and the
// complete event history, never a stage still unwinding.
func WithEvictHook(hook func(*Session)) ManagerOption {
	return func(m *Manager) { m.evictHooks = append(m.evictHooks, hook) }
}

// WithManagerMetrics instruments the session population: the live-session
// gauge (sessions_live) tracks Create/Restore/Close/EvictIdle, creations
// and cap rejections are counted (sessions_created_total,
// sessions_rejected_total), and removals are split by cause
// (sessions_closed_total, sessions_evicted_total). Cap rejections are
// counted for Create and Restore alike, so boot-time restore rejections
// show up in metricz.
func WithManagerMetrics(reg *metrics.Registry) ManagerOption {
	return func(m *Manager) { m.reg = reg }
}

// NewManager builds an empty session manager.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{shards: make([]shard, shardCount)}
	for _, opt := range opts {
		opt(m)
	}
	for i := range m.shards {
		m.shards[i].sessions = map[string]*Session{}
	}
	return m
}

// shardFor picks the stripe for a session ID (FNV-1a).
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &m.shards[h.Sum32()%uint32(len(m.shards))]
}

// reserve claims one slot against the session cap, race-free via CAS on the
// live counter. A rejection is counted; a successful reservation must be
// followed by either a shard insert or a release.
func (m *Manager) reserve() error {
	for {
		cur := m.live.Load()
		if m.maxSessions > 0 && cur >= int64(m.maxSessions) {
			m.count("sessions_rejected_total")
			return fmt.Errorf("%w (max %d)", ErrLimit, m.maxSessions)
		}
		if m.live.CompareAndSwap(cur, cur+1) {
			m.liveGauge()
			return nil
		}
	}
}

// release undoes a reservation (failed Restore) or records a removal.
func (m *Manager) release(n int64) {
	m.live.Add(-n)
	m.liveGauge()
}

// Create builds a session over the given Wrangler, assigns it a unique ID
// and registers it. It fails with ErrLimit when the cap is reached.
func (m *Manager) Create(w *core.Wrangler, opts ...Option) (*Session, error) {
	if err := m.reserve(); err != nil {
		return nil, err
	}
	seq := m.seq.Add(1)
	s := New(fmt.Sprintf("s%04d-%s", seq, randomSuffix()), w, opts...)
	s.mgrSeq = seq
	sh := m.shardFor(s.ID())
	sh.mu.Lock()
	sh.sessions[s.ID()] = s
	sh.mu.Unlock()
	m.count("sessions_created_total")
	return s, nil
}

// count increments a manager counter; no-op without a metrics registry.
func (m *Manager) count(name string) {
	if m.reg != nil {
		m.reg.Counter(name).Inc()
	}
}

// liveGauge refreshes the live-session gauge from the atomic counter.
func (m *Manager) liveGauge() {
	if m.reg != nil {
		m.reg.Gauge("sessions_live").Set(m.live.Load())
	}
}

// AtCap reports whether the session cap is currently reached — a cheap
// pre-check for callers doing expensive setup before Create (which remains
// the authoritative, race-free gate).
func (m *Manager) AtCap() bool {
	return m.maxSessions > 0 && m.live.Load() >= int64(m.maxSessions)
}

// Get returns the live session with the given ID, or ErrNotFound.
func (m *Manager) Get(id string) (*Session, error) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// List returns all live sessions in creation order. The creation sequence
// lives on the session itself, so listing allocates only the result slice —
// no per-call map snapshots.
func (m *Manager) List() []*Session {
	out := make([]*Session, 0, m.live.Load())
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].mgrSeq < out[j].mgrSeq })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		n += len(sh.sessions)
		sh.mu.RUnlock()
	}
	return n
}

// Restore registers an externally-constructed session — typically one
// rebuilt from a persisted snapshot — under its existing ID. The session
// cap applies as in Create, and a rejection is counted like one; an ID a
// live session already holds fails with ErrExists rather than silently
// replacing it.
func (m *Manager) Restore(s *Session) error {
	if err := m.reserve(); err != nil {
		return err
	}
	sh := m.shardFor(s.ID())
	sh.mu.Lock()
	if _, ok := sh.sessions[s.ID()]; ok {
		sh.mu.Unlock()
		m.release(1)
		return fmt.Errorf("%w: %q", ErrExists, s.ID())
	}
	s.mgrSeq = m.seq.Add(1)
	sh.sessions[s.ID()] = s
	sh.mu.Unlock()
	return nil
}

// Close removes and closes the session with the given ID, invoking the
// stop and evict hooks; unknown IDs fail with ErrNotFound.
func (m *Manager) Close(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	m.release(1)
	m.count("sessions_closed_total")
	m.teardown(s)
	return nil
}

// teardown runs the removal sequence shared by Close and EvictIdle:
// mark closed (new stages fail), stop hooks (interrupt in-flight work),
// quiesce (wait for the interrupted stage to release the session), then
// evict hooks — which therefore always see the final KB version and event
// history.
func (m *Manager) teardown(s *Session) {
	s.Close()
	for _, hook := range m.stopHooks {
		hook(s)
	}
	s.Quiesce()
	for _, hook := range m.evictHooks {
		hook(s)
	}
}

// EvictIdle removes and closes every session whose last activity is older
// than maxIdle, returning the evicted IDs sorted ascending. Candidates are
// collected shard by shard under that shard's lock; teardown then runs
// concurrently (bounded by maxConcurrentTeardowns), so one session stuck in
// quiesce or a slow persist hook does not delay eviction of the others.
// Run it from a ticker to bound the memory of abandoned sessions:
//
//	go func() {
//		for range time.Tick(time.Minute) {
//			m.EvictIdle(30 * time.Minute)
//		}
//	}()
func (m *Manager) EvictIdle(maxIdle time.Duration) []string {
	cutoff := time.Now().Add(-maxIdle)
	var evicted []*Session
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, s := range sh.sessions {
			if s.LastActive().Before(cutoff) {
				delete(sh.sessions, id)
				evicted = append(evicted, s)
			}
		}
		sh.mu.Unlock()
	}
	if len(evicted) == 0 {
		return []string{}
	}
	m.release(int64(len(evicted)))

	ids := make([]string, len(evicted))
	sem := make(chan struct{}, maxConcurrentTeardowns)
	var wg sync.WaitGroup
	for i, s := range evicted {
		ids[i] = s.ID()
		m.count("sessions_evicted_total")
		wg.Add(1)
		sem <- struct{}{}
		go func(s *Session) {
			defer wg.Done()
			defer func() { <-sem }()
			m.teardown(s)
		}(s)
	}
	wg.Wait()
	sort.Strings(ids)
	return ids
}

// randomSuffix makes session IDs unguessable across restarts.
func randomSuffix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

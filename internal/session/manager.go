package session

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"vada/internal/core"
	"vada/internal/metrics"
)

// maxConcurrentTeardowns bounds the teardown fan-out in EvictIdle so a
// large eviction sweep cannot spawn an unbounded goroutine burst, while one
// session stuck in quiesce or a slow evict hook no longer serialises the
// rest of the sweep behind it.
const maxConcurrentTeardowns = 8

// Manager serves many independent sessions: create, look up, list and close
// by ID, concurrency-safe, with a configurable session cap and an idle
// eviction hook. The session table is one map under one lock, held only for
// the map operation itself; wrangling work happens under the individual
// session's lock, so sessions proceed fully in parallel.
type Manager struct {
	maxSessions int
	stopHooks   []func(*Session)
	evictHooks  []func(*Session)
	reg         *metrics.Registry

	mu       sync.RWMutex
	sessions map[string]*Session
	seq      uint64 // creation sequence; guarded by mu
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// DefaultMaxSessions is the live-session cap of a manager built without
// WithMaxSessions.
const DefaultMaxSessions = 64

// WithMaxSessions caps the number of live sessions (DefaultMaxSessions when
// n is not positive). Create fails with ErrLimit at the cap.
func WithMaxSessions(n int) ManagerOption {
	return func(m *Manager) {
		if n > 0 {
			m.maxSessions = n
		}
	}
}

// WithStopHook installs a callback invoked (outside the manager lock) for
// every session removed by Close or EvictIdle, immediately after the
// session is marked closed and BEFORE the manager waits for its in-flight
// stage to finish. This is the place to interrupt outstanding work — a
// service cancels the session's runs here — so the wait is short.
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
	m := &Manager{maxSessions: DefaultMaxSessions, sessions: map[string]*Session{}}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// admitLocked claims the next creation sequence number, unless the cap is
// reached (ErrLimit, counted). Callers hold m.mu and go on to putLocked.
func (m *Manager) admitLocked() error {
	if len(m.sessions) >= m.maxSessions {
		m.count("sessions_rejected_total")
		return fmt.Errorf("%w (max %d)", ErrLimit, m.maxSessions)
	}
	m.seq++
	return nil
}

// putLocked publishes s, which has its ID, under the sequence number just
// claimed. Callers hold m.mu.
func (m *Manager) putLocked(s *Session) {
	s.mgrSeq = m.seq
	m.sessions[s.ID()] = s
	m.liveGaugeLocked()
}

// Create builds a session over the given Wrangler, assigns it a unique ID
// and registers it. It fails with ErrLimit when the cap is reached.
func (m *Manager) Create(w *core.Wrangler, opts ...Option) (*Session, error) {
	s, suffix := New("", w, opts...), randomSuffix()
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.admitLocked(); err != nil {
		return nil, err
	}
	// The ID carries the creation sequence, so it is assigned under the lock
	// that orders creations; s is not published before putLocked.
	s.id = fmt.Sprintf("s%04d-%s", m.seq, suffix)
	m.putLocked(s)
	m.count("sessions_created_total")
	return s, nil
}

// count increments a manager counter; no-op without a metrics registry.
func (m *Manager) count(name string) {
	if m.reg != nil {
		m.reg.Counter(name).Inc()
	}
}

// liveGaugeLocked refreshes the live-session gauge. Callers hold m.mu.
func (m *Manager) liveGaugeLocked() {
	if m.reg != nil {
		m.reg.Gauge("sessions_live").Set(int64(len(m.sessions)))
	}
}

// AtCap reports whether the session cap is currently reached — a cheap
// pre-check for callers doing expensive setup before Create (which remains
// the authoritative, race-free gate).
func (m *Manager) AtCap() bool { return m.Len() >= m.maxSessions }

// Get returns the live session with the given ID, or ErrNotFound.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.RLock()
	s, ok := m.sessions[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// List returns all live sessions in creation order. The creation sequence
// lives on the session itself, so listing allocates only the result slice —
// no per-call map snapshots.
func (m *Manager) List() []*Session {
	m.mu.RLock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].mgrSeq < out[j].mgrSeq })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// Restore registers an externally-constructed session — typically one
// rebuilt from a persisted snapshot — under its existing ID. The session
// cap applies as in Create, and a rejection is counted like one; an ID a
// live session already holds fails with ErrExists rather than silently
// replacing it.
func (m *Manager) Restore(s *Session) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[s.ID()]; ok {
		return fmt.Errorf("%w: %q", ErrExists, s.ID())
	}
	if err := m.admitLocked(); err != nil {
		return err
	}
	m.putLocked(s)
	return nil
}

// Close removes and closes the session with the given ID, invoking the
// stop and evict hooks; unknown IDs fail with ErrNotFound.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.liveGaugeLocked()
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
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
// taken out of the table under its lock; teardown then runs
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
	m.mu.Lock()
	var evicted []*Session
	for id, s := range m.sessions {
		if s.LastActive().Before(cutoff) {
			delete(m.sessions, id)
			evicted = append(evicted, s)
		}
	}
	m.liveGaugeLocked()
	m.mu.Unlock()
	if len(evicted) == 0 {
		return []string{}
	}

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

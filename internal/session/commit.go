package session

import (
	"context"
	"sync"
)

// deferredCommits collects the durability waits of consecutive Steps so a
// multi-stage plan can invoke them together. A journal wait fsyncs
// everything written before it, so once every stage of the plan has written
// its record the first wait makes them all durable and the rest return at
// once: the whole plan shares one fsync instead of paying one per stage.
type deferredCommits struct {
	mu    sync.Mutex
	waits []func()
}

type deferredCommitsKey struct{}

// DeferCommits derives a context under which Step records its stage-commit
// durability wait instead of blocking on it, and returns the flush that
// invokes every deferred wait and returns once all records are durable.
// Callers MUST flush before acknowledging the work (the run engine flushes
// before a run turns terminal), preserving the crash contract: an
// acknowledged stage is on disk. Waits registered after a flush are picked
// up by the next flush call; the flush may be called any number of times.
func DeferCommits(ctx context.Context) (context.Context, func()) {
	c := &deferredCommits{}
	return context.WithValue(ctx, deferredCommitsKey{}, c), c.flush
}

// deferredFrom extracts the collector, or nil.
func deferredFrom(ctx context.Context) *deferredCommits {
	c, _ := ctx.Value(deferredCommitsKey{}).(*deferredCommits)
	return c
}

func (c *deferredCommits) add(wait func()) {
	c.mu.Lock()
	c.waits = append(c.waits, wait)
	c.mu.Unlock()
}

// flush invokes every pending wait, in the order the stages completed.
func (c *deferredCommits) flush() {
	c.mu.Lock()
	waits := c.waits
	c.waits = nil
	c.mu.Unlock()
	for _, w := range waits {
		w()
	}
}

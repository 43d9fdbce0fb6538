package metrics

import (
	"runtime"
	"time"
)

// Runtime gauge names published by StartRuntimeSampler. They feed the
// metricz snapshot (and healthz roll-up) so operators see scheduler
// and heap pressure next to the service's own instruments.
const (
	RuntimeGoroutines    = "runtime_goroutines"
	RuntimeHeapAlloc     = "runtime_heap_alloc_bytes"
	RuntimeHeapInuse     = "runtime_heap_inuse_bytes"
	RuntimeHeapObjects   = "runtime_heap_objects"
	RuntimeGCCycles      = "runtime_gc_cycles"
	RuntimeGCPauseLastNs = "runtime_gc_pause_last_ns"
)

// runtimeSampleEvery is the runtime sampler's interval.
const runtimeSampleEvery = 10 * time.Second

// StartRuntimeSampler samples the Go runtime (goroutine count, heap
// in-use/alloc, GC cycle count and last pause) into gauges on r every
// runtimeSampleEvery, taking an immediate first sample so the gauges are
// live before the first tick. It returns a stop function that halts the
// sampler and blocks until its goroutine exits; stop is idempotent.
func StartRuntimeSampler(r *Registry) (stop func()) {
	sampleRuntime(r)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(runtimeSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				sampleRuntime(r)
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(done)
		<-exited
	}
}

// sampleRuntime takes one sample. runtime.ReadMemStats stops the
// world briefly, which is negligible at a 10s cadence.
func sampleRuntime(r *Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.Gauge(RuntimeGoroutines).Set(int64(runtime.NumGoroutine()))
	r.Gauge(RuntimeHeapAlloc).Set(int64(ms.HeapAlloc))
	r.Gauge(RuntimeHeapInuse).Set(int64(ms.HeapInuse))
	r.Gauge(RuntimeHeapObjects).Set(int64(ms.HeapObjects))
	r.Gauge(RuntimeGCCycles).Set(int64(ms.NumGC))
	if ms.NumGC > 0 {
		r.Gauge(RuntimeGCPauseLastNs).Set(int64(ms.PauseNs[(ms.NumGC+255)%256]))
	}
}

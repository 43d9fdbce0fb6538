package main

import (
	"time"
)

// Span is one recorded interval. The benchmark records spans around its own
// calls into each layer; spans inside the program are a later change.
type Span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Trace   string         `json:"trace"`
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps one client's spans in memory until the run ends. A nil tracer
// records nothing, so the measured (untraced) run pays only a nil check.
type tracer struct {
	epoch  time.Time
	client int64
	spans  []Span
}

func newTracer(epoch time.Time, client int) *tracer {
	return &tracer{epoch: epoch, client: int64(client)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span and returns its ID (0 from a nil tracer).
func (t *tracer) add(parent int64, trace, name string, startNs, endNs int64, attrs map[string]any) int64 {
	if t == nil {
		return 0
	}
	id := t.client<<32 | int64(len(t.spans)+1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: startNs, EndNs: endNs, Attrs: attrs})
	return id
}

// open records a span whose end is not known yet; close fills it in.
func (t *tracer) open(parent int64, trace, name string) int64 {
	if t == nil {
		return 0
	}
	return t.add(parent, trace, name, t.now(), 0, nil)
}

func (t *tracer) close(id int64, attrs map[string]any) {
	if t == nil {
		return
	}
	sp := &t.spans[(id&0xffffffff)-1]
	sp.EndNs = t.now()
	sp.Attrs = attrs
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover, in milliseconds. Children of one span never overlap here:
// every client is one goroutine in a closed loop.
func selfTimes(spans []Span) map[string]float64 {
	children := map[int64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		self[s.Name] += float64(s.EndNs-s.StartNs-children[s.ID]) / 1e6
	}
	return self
}

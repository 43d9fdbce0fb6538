package trace

import (
	"sort"
	"sync"
	"time"
)

// Store retains finished spans grouped by trace ID in a bounded
// ring: when more than traceCapacity distinct traces are held, the oldest
// trace (by first-span arrival) is evicted whole. Within one trace
// at most spansPerTrace spans are kept; excess spans are counted but
// dropped, so a runaway instrumentation loop cannot grow memory.
type Store struct {
	mu sync.Mutex
	// capacity and maxSpans are traceCapacity and spansPerTrace; tests
	// shrink them.
	capacity int
	maxSpans int
	traces   map[string]*traceEntry
	order    []string // trace IDs, oldest first
}

type traceEntry struct {
	spans   []SpanData
	dropped int
	first   time.Time // arrival of the first recorded span
}

// The store's bounds: the traces it retains and the spans it keeps of
// each.
const (
	traceCapacity = 1024
	spansPerTrace = 256
)

// NewStore builds an empty Store.
func NewStore() *Store {
	return &Store{
		capacity: traceCapacity,
		maxSpans: spansPerTrace,
		traces:   make(map[string]*traceEntry, traceCapacity),
	}
}

// add files one finished span, evicting the oldest trace when the
// trace cap is exceeded.
func (st *Store) add(data SpanData) {
	if data.TraceID == "" {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.traces[data.TraceID]
	if !ok {
		e = &traceEntry{first: time.Now()}
		st.traces[data.TraceID] = e
		st.order = append(st.order, data.TraceID)
		for len(st.order) > st.capacity {
			victim := st.order[0]
			st.order = st.order[1:]
			delete(st.traces, victim)
		}
	}
	if len(e.spans) >= st.maxSpans {
		e.dropped++
		return
	}
	e.spans = append(e.spans, data)
}

// Len reports the number of traces currently retained.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.traces)
}

// Spans returns a copy of every span recorded under trace id, in
// arrival order, or nil if the trace is unknown (or evicted).
func (st *Store) Spans(id string) []SpanData {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.traces[id]
	if !ok {
		return nil
	}
	out := make([]SpanData, len(e.spans))
	copy(out, e.spans)
	return out
}

// Filter narrows a List call. Zero values match everything.
type Filter struct {
	// Session matches traces containing a span whose "session" attr
	// equals this value.
	Session string
	// Run matches traces containing a span whose "run" attr equals
	// this value.
	Run string
	// MinDuration matches traces whose root span (or, absent a root,
	// longest span) lasted at least this long.
	MinDuration time.Duration
	// Limit caps the number of summaries returned (0 = no cap).
	Limit int
}

// Summary is one row of a trace listing.
type Summary struct {
	TraceID  string        `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
	Dropped  int           `json:"dropped_spans,omitempty"`
	Session  string        `json:"session,omitempty"`
	Run      string        `json:"run,omitempty"`
	Status   string        `json:"status"`
}

// List returns summaries of retained traces, newest first, filtered
// by f.
func (st *Store) List(f Filter) []Summary {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Summary, 0, len(st.order))
	// Walk newest-first.
	for i := len(st.order) - 1; i >= 0; i-- {
		id := st.order[i]
		e, ok := st.traces[id]
		if !ok || len(e.spans) == 0 {
			continue
		}
		sum := summarize(id, e)
		if f.Session != "" && sum.Session != f.Session {
			continue
		}
		if f.Run != "" && sum.Run != f.Run {
			continue
		}
		if f.MinDuration > 0 && sum.Duration < f.MinDuration {
			continue
		}
		out = append(out, sum)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

func summarize(id string, e *traceEntry) Summary {
	sum := Summary{TraceID: id, Spans: len(e.spans), Dropped: e.dropped, Status: StatusOK}
	var best *SpanData // root if present, else longest
	haveRoot := false
	ids := make(map[string]bool, len(e.spans))
	for i := range e.spans {
		ids[e.spans[i].SpanID] = true
	}
	for i := range e.spans {
		sp := &e.spans[i]
		isRoot := sp.ParentID == "" || !ids[sp.ParentID]
		switch {
		case best == nil,
			isRoot && !haveRoot,
			isRoot == haveRoot && sp.Duration > best.Duration:
			best = sp
			haveRoot = haveRoot || isRoot
		}
		if sp.Status == StatusError {
			sum.Status = StatusError
		}
		if v := sp.Attrs["session"]; v != "" && sum.Session == "" {
			sum.Session = v
		}
		if v := sp.Attrs["run"]; v != "" && sum.Run == "" {
			sum.Run = v
		}
	}
	if best != nil {
		sum.Root = best.Name
		sum.Start = best.Start
		sum.Duration = best.Duration
	}
	return sum
}

// Node is one span plus its children — the tree form served by
// GET /api/v1/traces/{id}.
type Node struct {
	SpanData
	Children []*Node `json:"children,omitempty"`
}

// Tree assembles the span tree for trace id. Spans whose parent is
// missing (remote parents, evicted spans) surface as roots. Returns
// nil for unknown traces. Siblings are ordered by start time.
func (st *Store) Tree(id string) []*Node {
	spans := st.Spans(id)
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[string]*Node, len(spans))
	for i := range spans {
		nodes[spans[i].SpanID] = &Node{SpanData: spans[i]}
	}
	var roots []*Node
	for _, n := range nodes {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func([]*Node)
	sortNodes = func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool {
			if !ns[i].Start.Equal(ns[j].Start) {
				return ns[i].Start.Before(ns[j].Start)
			}
			return ns[i].SpanID < ns[j].SpanID
		})
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

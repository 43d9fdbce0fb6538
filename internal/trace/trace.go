// Package trace is a dependency-free span recorder for the VADA
// service. It produces per-request span trees (HTTP root -> run ->
// queue-wait / stage -> journal append) that answer "where did the
// time go" for one specific run, complementing the aggregate
// counters in internal/metrics.
//
// Design constraints, in order:
//
//   - Zero cost when disabled: every method on *Tracer and *Span is
//     nil-safe, so instrumented code never branches on "is tracing
//     on". A nil tracer hands out nil spans; a nil span's Child is
//     nil again.
//   - Bounded memory: finished spans land in a ring-buffer Store
//     with a trace-count cap and a per-trace span cap (see store.go).
//   - Interop at the edges only: trace/span IDs follow the W3C
//     traceparent wire format (see traceparent.go) so external
//     callers can stitch VADA spans into their own traces, but the
//     in-process representation stays a plain struct.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync"
	"time"
)

// SpanData is the exported, JSON-serialisable form of a finished
// span. Duration is nanoseconds; ParentID is empty for root spans.
type SpanData struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	ParentID string            `json:"parent_id,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Status   string            `json:"status"`
	Error    string            `json:"error,omitempty"`
}

// Span statuses. A span is "ok" unless ended via EndErr with a
// non-nil error.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// Span is a live, mutable handle on an in-flight span. All methods
// are safe on a nil receiver (no-ops returning nil children), safe
// for concurrent use, and idempotent with respect to End.
type Span struct {
	tr *Tracer

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// TraceID returns the span's trace ID, or "" on a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// Traceparent renders the span as an outbound W3C traceparent value,
// or "" on a nil span.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.data.TraceID, s.data.SpanID)
}

// SetAttr attaches a key/value attribute. Later writes win.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[key] = value
}

// End finishes the span with StatusOK (unless EndErr ran first) and
// records it. Subsequent End/EndErr calls are no-ops.
func (s *Span) End() { s.EndErr(nil) }

// EndErr finishes the span; a non-nil err marks it StatusError and
// stores the error text. Idempotent.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	if err != nil {
		s.data.Status = StatusError
		s.data.Error = err.Error()
	}
	data := s.data
	s.mu.Unlock()
	s.tr.record(data)
}

// Child opens a child span under s. Attribute pairs may be passed as
// alternating key, value strings. Returns nil on a nil receiver.
func (s *Span) Child(name string, kv ...string) *Span {
	return s.ChildAt(name, time.Now(), kv...)
}

// ChildAt opens a child span with an explicit start time — used for
// retroactive intervals such as queue wait, where the waiting began
// before the code that accounts for it runs.
func (s *Span) ChildAt(name string, start time.Time, kv ...string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	parent := s.data
	s.mu.Unlock()
	c := &Span{
		tr: s.tr,
		data: SpanData{
			TraceID:  parent.TraceID,
			SpanID:   newSpanID(),
			ParentID: parent.SpanID,
			Name:     name,
			Start:    start,
			Status:   StatusOK,
		},
	}
	applyKV(c, kv)
	return c
}

// Tracer mints root spans and records finished ones into its Store,
// emitting a structured warning for any span at or over the slow
// threshold. A nil *Tracer is a valid disabled tracer.
type Tracer struct {
	store  *Store
	slow   time.Duration
	logger *slog.Logger
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSlowThreshold sets the duration at or above which a finished
// span is logged as a structured warning. Zero disables slow-span
// logging.
func WithSlowThreshold(d time.Duration) Option {
	return func(t *Tracer) { t.slow = d }
}

// WithLogger sets the logger used for slow-span warnings. Defaults
// to slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(t *Tracer) { t.logger = l }
}

// NewTracer builds a Tracer recording into store (which must be
// non-nil for spans to be retained; a nil store records nothing but
// still propagates IDs).
func NewTracer(store *Store, opts ...Option) *Tracer {
	t := &Tracer{store: store}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Store returns the tracer's span store (nil on a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// Root opens a root span. If traceparent carries a valid W3C value
// the inbound trace ID is adopted and the remote span becomes the
// parent; otherwise a fresh trace ID is minted. Returns nil on a nil
// tracer, so callers can thread the result unconditionally.
func (t *Tracer) Root(name, traceparent string, kv ...string) *Span {
	if t == nil {
		return nil
	}
	var traceID, parentID string
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		traceID, parentID = tid, pid
	} else {
		traceID = newTraceID()
	}
	s := &Span{
		tr: t,
		data: SpanData{
			TraceID:  traceID,
			SpanID:   newSpanID(),
			ParentID: parentID,
			Name:     name,
			Start:    time.Now(),
			Status:   StatusOK,
		},
	}
	applyKV(s, kv)
	return s
}

// record files a finished span and emits the slow-span warning.
func (t *Tracer) record(data SpanData) {
	if t == nil {
		return
	}
	if t.store != nil {
		t.store.add(data)
	}
	if t.slow > 0 && data.Duration >= t.slow {
		l := t.logger
		if l == nil {
			l = slog.Default()
		}
		attrs := []any{
			slog.String("span", data.Name),
			slog.String("trace_id", data.TraceID),
			slog.String("span_id", data.SpanID),
			slog.Duration("duration", data.Duration),
			slog.Duration("threshold", t.slow),
		}
		for k, v := range data.Attrs {
			attrs = append(attrs, slog.String(k, v))
		}
		if data.Error != "" {
			attrs = append(attrs, slog.String("error", data.Error))
		}
		l.Warn("slow span", attrs...)
	}
}

type ctxKey struct{}

// NewContext returns ctx carrying s. Storing a nil span is fine and
// yields nil from FromContext.
func NewContext(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ChildFromContext opens a child of the span in ctx, or returns nil
// when the context carries none — the usual one-liner at an
// instrumentation site.
func ChildFromContext(ctx context.Context, name string, kv ...string) *Span {
	return FromContext(ctx).Child(name, kv...)
}

func applyKV(s *Span, kv []string) {
	for i := 0; i+1 < len(kv); i += 2 {
		s.SetAttr(kv[i], kv[i+1])
	}
}

func newTraceID() string { return randomHex(16) }
func newSpanID() string  { return randomHex(8) }

// NewRequestID mints a short opaque request identifier for the HTTP
// layer — the per-request correlation key that exists even when
// tracing is disabled.
func NewRequestID() string { return randomHex(8) }

func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failure is unrecoverable for ID quality; fall
		// back to a fixed-pattern ID rather than panicking in a
		// diagnostics path.
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
	return hex.EncodeToString(b)
}

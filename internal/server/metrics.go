package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vada/internal/metrics"
	"vada/internal/trace"
)

// instrument is the observability middleware every request crosses:
// per-route request counts split by status class
// (http_requests_total{route,code}), per-route latency histograms
// (http_request_seconds{route}), the in-flight gauge (http_in_flight), a
// request ID (adopted from X-Request-Id or minted, echoed back in the
// response and stamped on the request's log line), and the root span of
// the request's trace. Routes are labelled by the ServeMux
// pattern that matched — the mux stamps it onto the request during routing,
// so the label space is the route table, never the unbounded URL space.
//
// Root spans are sampled: every non-GET request, plus any GET carrying an
// inbound W3C traceparent, opens one. Unsampled GETs (the poll and UI
// refresh floods) would otherwise churn the bounded trace store and evict
// the plan traces worth keeping; they still get a request ID and log line.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		inFlight := s.metrics.Gauge("http_in_flight")
		inFlight.Inc()
		defer inFlight.Dec()

		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" || len(reqID) > 64 {
			reqID = trace.NewRequestID()
		}
		rw.Header().Set("X-Request-Id", reqID)

		var span *trace.Span
		traceparent := r.Header.Get("Traceparent")
		if r.Method != http.MethodGet || traceparent != "" {
			span = s.tracer.Root("http "+r.Method, traceparent,
				"method", r.Method, "path", r.URL.Path, "request_id", reqID)
			rw.Header().Set("Traceparent", span.Traceparent())
			r = r.WithContext(trace.NewContext(r.Context(), span))
		}

		sw := &statusWriter{ResponseWriter: rw}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(t0)
		// ServeMux routes by mutating the request in place, so the matched
		// pattern and path values are readable here even though the mux saw
		// the same *Request we hold.
		route := r.Pattern
		if route == "" {
			route = "(unmatched)"
		}
		code := sw.status()
		s.metrics.Counter(metrics.Name("http_requests_total",
			"route", route, "code", strconv.Itoa(code))).Inc()
		s.metrics.Histogram(metrics.Name("http_request_seconds", "route", route)).ObserveSince(t0)

		if span != nil {
			span.SetAttr("route", route)
			span.SetAttr("status", strconv.Itoa(code))
			if id := r.PathValue("id"); id != "" {
				span.SetAttr("session", id)
			}
			if code >= 500 {
				span.EndErr(fmt.Errorf("HTTP %d", code))
			} else {
				span.End()
			}
		}
		s.logRequest(r, route, code, elapsed, reqID, span.TraceID())
	})
}

// logRequest emits the structured per-request log line: 5xx at error, other
// 4xx+ at warn, GETs (polls, UI refreshes) at debug, mutations at info.
func (s *Server) logRequest(r *http.Request, route string, code int, elapsed time.Duration, reqID, traceID string) {
	attrs := []any{
		"method", r.Method,
		"route", route,
		"path", r.URL.Path,
		"status", code,
		"duration", elapsed,
		"request_id", reqID,
	}
	if traceID != "" {
		attrs = append(attrs, "trace_id", traceID)
	}
	switch {
	case code >= 500:
		s.logger.Error("request", attrs...)
	case code >= 400:
		s.logger.Warn("request", attrs...)
	case r.Method == http.MethodGet:
		s.logger.Debug("request", attrs...)
	default:
		s.logger.Info("request", attrs...)
	}
}

// statusWriter records the status code a handler writes. It forwards Flush
// (the SSE handlers stream) and exposes Unwrap so http.ResponseController
// still reaches the underlying connection's write deadlines.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		if w.code == 0 {
			w.code = http.StatusOK
		}
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// status returns the recorded code, defaulting to 200 for handlers that
// never write anything.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// handleMetricz serves the full registry snapshot: every counter, gauge and
// histogram (with p50/p90/p99 and cumulative buckets) across the HTTP,
// runs, sessions and persist/journal paths — as diff-friendly JSON by
// default, or in the Prometheus text exposition format with
// ?format=prometheus (or an Accept header preferring text/plain).
func (s *Server) handleMetricz(rw http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	if wantsPrometheus(r) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.WritePrometheus(rw, snap); err != nil {
			s.logger.Warn("writing prometheus exposition", "error", err)
		}
		return
	}
	writeJSON(rw, snap)
}

// wantsPrometheus reports whether a metricz request asked for the text
// exposition format instead of JSON.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	return strings.HasPrefix(r.Header.Get("Accept"), "text/plain")
}

// httpErrorTotal sums the 5xx request counters of a snapshot — the
// error-class number the load generator (and CI smoke gate) alarms on.
func httpErrorTotal(snap metrics.Snapshot) int64 {
	var total int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "http_requests_total{") && strings.Contains(name, `code="5`) {
			total += v
		}
	}
	return total
}

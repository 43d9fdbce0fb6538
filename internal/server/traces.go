package server

import (
	"net/http"
	"time"

	"vada/internal/trace"
)

// handleTraceList lists retained traces, newest first. Filters: ?session=
// and ?run= match the span attributes the run engine and stage hooks stamp,
// ?min_ms= keeps only traces whose root lasted at least that long, and
// ?limit= caps the listing (default 100).
func (s *Server) handleTraceList(rw http.ResponseWriter, r *http.Request) {
	store := s.tracer.Store()
	f := trace.Filter{
		Session:     r.URL.Query().Get("session"),
		Run:         r.URL.Query().Get("run"),
		MinDuration: time.Duration(intQuery(r, "min_ms", 0)) * time.Millisecond,
		Limit:       intQuery(r, "limit", 100),
	}
	list := store.List(f)
	if list == nil {
		list = []trace.Summary{}
	}
	writeJSON(rw, map[string]any{"total": store.Len(), "traces": list})
}

// handleTraceGet serves one trace as its span tree — the end-to-end answer
// to "where did this run's time go": the HTTP root, the queue wait, each
// plan stage and every fsynced journal append, nested and ordered by start
// time. Unknown (or already-evicted) trace IDs are 404.
func (s *Server) handleTraceGet(rw http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("tid")
	tree := s.tracer.Store().Tree(tid)
	if len(tree) == 0 {
		http.Error(rw, "trace not found: "+tid, http.StatusNotFound)
		return
	}
	writeJSON(rw, map[string]any{"trace_id": tid, "spans": tree})
}

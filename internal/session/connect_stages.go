package session

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"vada/internal/connect"
	"vada/internal/core"
	"vada/internal/feedback"
	"vada/internal/metrics"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/trace"
)

// Stage names of the connector subsystem: sources and sinks as first-class
// plan stages, registered alongside the four paper stages.
const (
	// StageIngest decodes an inline CSV/JSONL body into a source or
	// data-context relation.
	StageIngest = "ingest"
	// StageFetch pulls an http(s) URL and ingests the body.
	StageFetch = "fetch"
	// StageExport renders a relation through the sink and records the
	// export fact (the streaming bytes are served by the export route).
	StageExport = "export"
	// StageQualityReport assesses a relation and publishes the report as
	// relation qr_<name>.
	StageQualityReport = "quality-report"
)

// connectObserve feeds one connector transfer into the shared metrics
// registry: rows, bytes and duration per direction and format.
func (s *Session) connectObserve(dir string, st connect.Stats, d time.Duration) {
	if s.reg == nil {
		return
	}
	s.reg.Counter(metrics.Name("connect_rows_total", "dir", dir, "format", st.Format)).Add(int64(st.Rows))
	s.reg.Counter(metrics.Name("connect_bytes_total", "dir", dir, "format", st.Format)).Add(st.Bytes)
	s.reg.Histogram(metrics.Name("connect_seconds", "dir", dir, "format", st.Format)).Observe(d.Seconds())
}

// mappingCandidates collects the schemas header-mapping inference matches
// against: the target schema first (its vocabulary wins ties), then the
// session's data-context relations in knowledge-base order.
func mappingCandidates(w *core.Wrangler) []relation.Schema {
	var out []relation.Schema
	if target, ok := w.TargetSchema(); ok {
		out = append(out, target)
	}
	for _, name := range w.KB.RelationNames(core.RelContextPrefix) {
		if rel := w.KB.Relation(name); rel != nil {
			out = append(out, rel.Schema)
		}
	}
	return out
}

// relationByName resolves an export or quality target: "" or "result" is
// the clean wrangling result; anything else is looked up as a knowledge-base
// relation by raw name, then with the src_ and dc_ prefixes.
func relationByName(w *core.Wrangler, name string) (*relation.Relation, error) {
	if name == "" || name == core.RelResult {
		res := w.ResultClean()
		if res == nil {
			return nil, core.ErrNoResult
		}
		return res, nil
	}
	for _, full := range []string{name, core.RelSourcePrefix + name, core.RelContextPrefix + name} {
		if rel := w.KB.Relation(full); rel != nil {
			return rel, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", connect.ErrUnknownRelation, name)
}

// Relation resolves a relation for export through the service surface: the
// clean result for "result" (or ""), a knowledge-base relation otherwise.
// It fails with core.ErrNoResult before the first fusion and
// connect.ErrUnknownRelation for names the knowledge base does not hold. A
// knowledge-base relation is the stored one: to read, not to write to.
func (s *Session) Relation(name string) (*relation.Relation, error) {
	if err := s.touch(); err != nil {
		return nil, err
	}
	return relationByName(s.w, name)
}

// ingest decodes an ingest body (connect_* metric series) under span, which
// it ends, and lands the rows in the session under the requested role as one
// orchestrated stage step.
func (s *Session) ingest(ctx context.Context, stage string, p *connect.IngestPayload, start time.Time, span *trace.Span) (Event, error) {
	rel, stats, err := connect.Read(p.Relation, strings.NewReader(p.Data), connect.ReadOptions{
		Format:     p.Format,
		Mapping:    p.Mapping,
		Candidates: mappingCandidates(s.w),
	})
	if span != nil {
		span.SetAttr("format", stats.Format)
		span.EndErr(err)
	}
	if err != nil {
		return Event{}, err
	}
	s.connectObserve("in", stats, time.Since(start))
	return s.Step(ctx, stage, func(w *core.Wrangler) error {
		if p.Role == connect.RoleContext {
			w.AddDataContext(rel)
		} else {
			w.RegisterSource(rel)
		}
		return nil
	})
}

// fetchRequest is the decoded payload of the fetch stage and, once the stage
// has fetched, the ingest request it applied (see Applied).
type fetchRequest struct {
	connect.FetchPayload
	applied *StageRequest
}

// Applied is the request a stage asked by req applied, once it has run
// (payload is req decoded by Resolve): req itself, except for a fetch, which
// applied the ingest of the body it fetched. That is what a session's journal
// records, so replaying a run needs nothing from outside the session: every
// other input — the oracle's items, the scenario's reference — is a function of
// the scenario's seed and the knowledge base.
func Applied(req StageRequest, payload any) StageRequest {
	if f, ok := payload.(*fetchRequest); ok && f.applied != nil {
		return *f.applied
	}
	return req
}

// ingestRequest is the ingest request of a fetched body, and that request
// decoded: what the fetch stage ingests. The body goes through JSON, as an
// upload's does, so the session ingests exactly what the journal holds — a
// body that is not UTF-8 lands with each invalid byte as U+FFFD, live and on
// replay alike.
func ingestRequest(p *connect.IngestPayload) (StageRequest, *connect.IngestPayload) {
	data, _ := json.Marshal(p) // strings and a string map always marshal
	var in connect.IngestPayload
	_ = json.Unmarshal(data, &in) // what Marshal wrote decodes
	return StageRequest{Stage: StageIngest, Payload: data}, &in
}

// The connector stages: sources and sinks as first-class stages, which every
// session (and the generic stages/{name} route and plans) speaks.
var (
	ingestStage = Stage{
		Name:        StageIngest,
		Description: "source: decode an inline CSV/JSONL body into a source or context relation ({\"relation\",\"data\",\"format\",\"role\",\"mapping\"})",
		Fields: []StageField{
			{Name: "relation", Doc: "identifier-safe name the rows land in"},
			{Name: "data", Doc: "the raw file body"},
			{Name: "format", Doc: "\"csv\" (default) or \"jsonl\""},
			{Name: "role", Doc: "\"source\" (default) or \"context\""},
			{Name: "mapping", Doc: "raw column → attribute renames; omitted infers against target/context schemas, {} disables"},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var p connect.IngestPayload
			if emptyPayload(raw) {
				return nil, fmt.Errorf("ingest stage needs a payload")
			}
			if err := decodeStrict(raw, &p); err != nil {
				return nil, err
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return &p, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			p, _ := payload.(*connect.IngestPayload)
			span := trace.ChildFromContext(ctx, "ingest.read", "relation", p.Relation, "session", s.id)
			return s.ingest(ctx, StageIngest, p, time.Now(), span)
		},
	}
	fetchStage = Stage{
		Name:        StageFetch,
		Description: "source: fetch an http(s) URL with timeout/retry/backoff and ingest the body ({\"url\",\"relation\",...})",
		Fields: []StageField{
			{Name: "url", Doc: "http(s) location of the body"},
			{Name: "relation", Doc: "identifier-safe name the rows land in"},
			{Name: "format", Doc: "\"csv\" (default) or \"jsonl\""},
			{Name: "role", Doc: "\"source\" (default) or \"context\""},
			{Name: "mapping", Doc: "raw column → attribute renames; omitted infers"},
			{Name: "timeout_ms", Doc: "per-attempt bound in milliseconds (0 = 10000)"},
			{Name: "retries", Doc: "re-attempts for retryable failures (0 = 2, negative = none)"},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var p fetchRequest
			if emptyPayload(raw) {
				return nil, fmt.Errorf("fetch stage needs a payload")
			}
			if err := decodeStrict(raw, &p.FetchPayload); err != nil {
				return nil, err
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return &p, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			p, _ := payload.(*fetchRequest)
			start := time.Now()
			span := trace.ChildFromContext(ctx, "ingest.read", "relation", p.Relation, "url", p.URL, "session", s.id)
			// The body is fetched and decoded in full before any session
			// state is touched: a cancelled or failed fetch leaves the
			// knowledge base exactly as it was.
			body, err := connect.Fetch(ctx, p.URL, connect.FetchOptions{Timeout: p.Timeout(), Retries: p.Retries})
			if err != nil {
				span.EndErr(err)
				return Event{}, err
			}
			req, in := ingestRequest(&connect.IngestPayload{Relation: p.Relation, Format: p.Format, Role: p.Role,
				Data: string(body), Mapping: p.Mapping})
			p.applied = &req
			return s.ingest(ctx, StageFetch, in, start, span)
		},
	}
	exportStage = Stage{
		Name:        StageExport,
		Description: "sink: render a relation as canonical CSV/JSONL and record the export fact ({\"relation\",\"format\"}; default: the result)",
		Fields: []StageField{
			{Name: "relation", Doc: "what to export: \"result\" (default) or a knowledge-base relation name"},
			{Name: "format", Doc: "\"csv\" (default) or \"jsonl\""},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var p connect.ExportPayload
			if !emptyPayload(raw) {
				if err := decodeStrict(raw, &p); err != nil {
					return nil, err
				}
			}
			if err := p.Validate(); err != nil {
				return nil, err
			}
			return &p, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			p, _ := payload.(*connect.ExportPayload)
			if p == nil {
				p = &connect.ExportPayload{}
			}
			name := p.Relation
			if name == "" {
				name = core.RelResult
			}
			return s.Step(ctx, StageExport, func(w *core.Wrangler) error {
				rel, err := relationByName(w, p.Relation)
				if err != nil {
					return err
				}
				start := time.Now()
				span := trace.ChildFromContext(ctx, "export.write", "relation", name, "session", s.id)
				stats, err := connect.Write(io.Discard, rel, p.Format)
				if span != nil {
					span.SetAttr("format", stats.Format)
					span.EndErr(err)
				}
				if err != nil {
					return err
				}
				s.connectObserve("out", stats, time.Since(start))
				// One export fact per (relation, format), carrying the latest
				// canonical row and byte counts — the in-plan proof that the
				// sink ran end-to-end.
				w.KB.RetractWhere(core.PredExport, func(t relation.Tuple) bool {
					return len(t) == 4 && t[0].Str() == name && t[1].Str() == stats.Format
				})
				w.KB.Assert(core.PredExport, relation.NewTuple(name, stats.Format, stats.Rows, stats.Bytes))
				return nil
			})
		},
	}
	qualityReportStage = Stage{
		Name:        StageQualityReport,
		Description: "sink: assess a relation and publish the report as relation qr_<name> ({\"relation\"}; default: the result)",
		Fields: []StageField{
			{Name: "relation", Doc: "what to assess: \"result\" (default) or a knowledge-base relation name"},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var p connect.QualityPayload
			if !emptyPayload(raw) {
				if err := decodeStrict(raw, &p); err != nil {
					return nil, err
				}
			}
			return &p, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			p, _ := payload.(*connect.QualityPayload)
			if p == nil {
				p = &connect.QualityPayload{}
			}
			name := p.Relation
			if name == "" {
				name = core.RelResult
			}
			return s.Step(ctx, StageQualityReport, func(w *core.Wrangler) error {
				rel, err := relationByName(w, p.Relation)
				if err != nil {
					return err
				}
				// Feedback accuracy is evidence about the wrangling result;
				// reports over other relations carry no accuracy rows.
				var acc map[string]float64
				if name == core.RelResult {
					acc = feedback.AccuracyByAttr(w.FeedbackItems())
				}
				rep := quality.Assess(rel, w.CFDs(), acc)
				rep.Relation = name
				w.KB.PutRelation("qr_"+name, connect.QualityRelation("qr_"+name, rep))
				return nil
			})
		},
	}
)

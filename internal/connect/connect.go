// Package connect is the pluggable source/sink connector subsystem: real
// data in, real data out. Sources decode external bytes — CSV or JSON-Lines
// files, or an HTTP fetch with timeout/retry/backoff — into
// relation.Relation rows under a declarative header→attribute mapping that
// can be inferred from the session's data context when omitted; sinks render
// knowledge-base relations (and quality reports) back out as CSV or JSONL in
// a canonical, byte-stable form.
//
// The package is dependency-free beyond the relational substrate: it never
// imports the session layer, so internal/session can register connectors as
// first-class stages (ingest/fetch/export/quality-report) without an import
// cycle. All decoding is strict and size-capped, and every failure mode maps
// onto one of four sentinel errors (ErrBadFormat, ErrSchemaMismatch,
// ErrTooLarge, ErrFetchFailed) so the HTTP layer can translate them to
// status codes with errors.Is.
package connect

import (
	"errors"
	"fmt"
	"sort"

	"vada/internal/quality"
	"vada/internal/relation"
)

// Sentinel errors of the connector subsystem; branch with errors.Is.
var (
	// ErrBadFormat reports bytes that do not parse as the declared format
	// (malformed or truncated CSV, invalid JSONL) or an unknown format name.
	ErrBadFormat = errors.New("connect: bad format")

	// ErrSchemaMismatch reports rows that parse but do not fit: a declared
	// mapping naming an absent header, duplicate mapped columns, or JSONL
	// objects whose keys disagree across lines.
	ErrSchemaMismatch = errors.New("connect: schema mismatch")

	// ErrTooLarge reports an input body over the byte cap (maxBytes).
	ErrTooLarge = errors.New("connect: input too large")

	// ErrFetchFailed reports an HTTP-fetch source that could not produce a
	// body: bad URL scheme, exhausted retries, non-2xx status, or a
	// cancelled context.
	ErrFetchFailed = errors.New("connect: fetch failed")

	// ErrUnknownRelation reports an export of a relation the knowledge base
	// does not hold.
	ErrUnknownRelation = errors.New("connect: unknown relation")
)

// Wire formats the connectors speak.
const (
	FormatCSV   = "csv"
	FormatJSONL = "jsonl"
)

// maxBytes caps one connector input body. It matches the service's
// stage-payload cap.
const maxBytes = 8 << 20

// NormalizeFormat canonicalises a wire-format name: empty defaults to CSV,
// unknown names are ErrBadFormat.
func NormalizeFormat(format string) (string, error) {
	switch format {
	case "", FormatCSV:
		return FormatCSV, nil
	case FormatJSONL, "ndjson", "jsonlines":
		return FormatJSONL, nil
	default:
		return "", fmt.Errorf("%w: unknown format %q (want csv or jsonl)", ErrBadFormat, format)
	}
}

// Stats reports what moved through a connector: decoded or rendered rows,
// raw bytes on the wire side, and the format used. Sessions feed these into
// the connect_* metric series.
type Stats struct {
	Rows   int    `json:"rows"`
	Bytes  int64  `json:"bytes"`
	Format string `json:"format"`
}

// QualityRelation renders a quality report as a relation — the
// quality-report sink's output, exportable through the same CSV/JSONL paths
// as any other knowledge-base relation. Rows are (metric, target, value)
// in a fixed order: rows, density, consistency, then per-attribute
// completeness and accuracy sorted by attribute name.
func QualityRelation(name string, rep quality.Report) *relation.Relation {
	out := relation.New(relation.NewSchema(name, "metric", "target", "value:float"))
	out.MustAppend("rows", rep.Relation, float64(rep.Rows))
	out.MustAppend("density", rep.Relation, rep.Density)
	out.MustAppend("consistency", rep.Relation, rep.Consistency)
	for _, attr := range sortedKeys(rep.Completeness) {
		out.MustAppend("completeness", attr, rep.Completeness[attr])
	}
	for _, attr := range sortedKeys(rep.Accuracy) {
		out.MustAppend("accuracy", attr, rep.Accuracy[attr])
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

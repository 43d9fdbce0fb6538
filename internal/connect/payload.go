package connect

import (
	"fmt"
	"time"
)

// Roles an ingested relation can take in the wrangling process.
const (
	// RoleSource registers the relation as a wrangling source: it is
	// matched, mapped and fused into the result.
	RoleSource = "source"
	// RoleContext attaches the relation as data context: reference data
	// that informs matching, repair and quality assessment.
	RoleContext = "context"
)

// IngestPayload is the wire form of the ingest stage: an inline file body
// decoded into a named relation. The multipart upload route synthesises one
// per uploaded file.
type IngestPayload struct {
	// Relation names the relation the rows land in (identifier-safe).
	Relation string `json:"relation"`
	// Format is "csv" (default) or "jsonl".
	Format string `json:"format,omitempty"`
	// Role is "source" (default) or "context".
	Role string `json:"role,omitempty"`
	// Data is the raw file body.
	Data string `json:"data"`
	// Mapping renames raw columns onto attribute names. Omitted (null)
	// asks for inference against the session's target schema and data
	// context; an explicit empty object {} disables both. It is written even
	// when empty, so {} stays one through every encoding of the payload.
	Mapping map[string]string `json:"mapping"`
}

// Validate checks the payload's declarative fields; decode-time validation
// so malformed requests 400 before anything runs.
func (p *IngestPayload) Validate() error {
	if err := validRelationName(p.Relation); err != nil {
		return err
	}
	if _, err := NormalizeFormat(p.Format); err != nil {
		return err
	}
	if err := validRole(p.Role); err != nil {
		return err
	}
	if p.Data == "" {
		return fmt.Errorf("ingest payload needs a non-empty data field")
	}
	return nil
}

// FetchPayload is the wire form of the fetch stage: an HTTP(S) source
// pulled, decoded and ingested like an upload.
type FetchPayload struct {
	// URL is the http(s) location of the body.
	URL string `json:"url"`
	// Relation names the relation the rows land in (identifier-safe).
	Relation string `json:"relation"`
	// Format is "csv" (default) or "jsonl".
	Format string `json:"format,omitempty"`
	// Role is "source" (default) or "context".
	Role string `json:"role,omitempty"`
	// Mapping renames raw columns; omitted asks for inference.
	Mapping map[string]string `json:"mapping,omitempty"`
	// TimeoutMS bounds each fetch attempt in milliseconds (0 = 10000).
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Retries re-attempts retryable failures (0 = 2, negative = none).
	Retries int `json:"retries,omitempty"`
}

// Validate checks the payload's declarative fields.
func (p *FetchPayload) Validate() error {
	if p.URL == "" {
		return fmt.Errorf("fetch payload needs a url")
	}
	if err := validRelationName(p.Relation); err != nil {
		return err
	}
	if _, err := NormalizeFormat(p.Format); err != nil {
		return err
	}
	return validRole(p.Role)
}

// Timeout returns the per-attempt timeout as a duration.
func (p *FetchPayload) Timeout() time.Duration {
	return time.Duration(p.TimeoutMS) * time.Millisecond
}

// ExportPayload is the wire form of the export stage: render a relation
// through the sink and record the export fact on the knowledge base.
type ExportPayload struct {
	// Relation names what to export: "result" (default) for the wrangling
	// result, a knowledge-base relation name otherwise (raw, src_<name> and
	// dc_<name> are tried in that order).
	Relation string `json:"relation,omitempty"`
	// Format is "csv" (default) or "jsonl".
	Format string `json:"format,omitempty"`
}

// Validate checks the payload's declarative fields.
func (p *ExportPayload) Validate() error {
	_, err := NormalizeFormat(p.Format)
	return err
}

// QualityPayload is the wire form of the quality-report stage: assess a
// relation and publish the report as relation qr_<name>.
type QualityPayload struct {
	// Relation names what to assess ("result" by default).
	Relation string `json:"relation,omitempty"`
}

// validRelationName admits identifier-safe relation names: they become
// knowledge-base keys, URL path segments and export filenames.
func validRelationName(name string) error {
	if name == "" {
		return fmt.Errorf("payload needs a relation name")
	}
	if len(name) > 128 {
		return fmt.Errorf("relation name %q is too long", name)
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '_' || r == '-'):
		default:
			return fmt.Errorf("relation name %q must start with a letter and use only letters, digits, _ and -", name)
		}
	}
	return nil
}

// validRole admits the two ingest roles (empty defaults to source).
func validRole(role string) error {
	switch role {
	case "", RoleSource, RoleContext:
		return nil
	default:
		return fmt.Errorf("unknown role %q (want source or context)", role)
	}
}

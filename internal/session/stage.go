package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"vada/internal/core"
	"vada/internal/feedback"
	"vada/internal/mcda"
	"vada/internal/relation"
)

// Sentinel errors of stage resolution.
var (
	// ErrUnknownStage reports a stage name absent from the stage table.
	ErrUnknownStage = errors.New("session: unknown stage")

	// ErrBadPayload reports a stage payload that failed to decode.
	ErrBadPayload = errors.New("session: bad stage payload")
)

// StageRequest names a stage plus its raw JSON payload — the
// uniform wire form of every stage invocation, whether it arrives through
// the generic POST .../stages/{name} route or as one step of a Plan.
type StageRequest struct {
	// Stage is the stage name.
	Stage string `json:"stage"`
	// Payload is the stage-specific JSON payload; empty or null means the
	// stage's default behaviour.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Plan is an ordered list of stage requests executed as one cancellable
// run: the declarative form of a whole pay-as-you-go conversation.
type Plan struct {
	Stages []StageRequest `json:"stages"`
}

// Stage is one wrangling stage: a name, a typed JSON payload codec, and an
// apply function over the session. The stage table below holds every stage
// there is.
type Stage struct {
	// Name is the stage's wire name.
	Name string
	// Description is the one-line summary served by stage discovery.
	Description string
	// Fields documents the stage's payload fields for discovery — the
	// machine-readable stage docs advisors and thin LLM clients need to
	// turn a suggestion into a request. Empty means the stage takes no
	// payload.
	Fields []StageField
	// Decode turns the raw JSON payload of a StageRequest into the typed
	// value Apply receives. nil means the stage takes no payload: empty,
	// null and {} decode to nil, anything else is ErrBadPayload.
	Decode func(raw json.RawMessage) (any, error)
	// Apply runs the stage against the session with the decoded payload.
	Apply func(ctx context.Context, s *Session, payload any) (Event, error)
}

// StageField documents one payload field of a stage.
type StageField struct {
	// Name is the JSON field name.
	Name string `json:"name"`
	// Doc is a one-line description of the field.
	Doc string `json:"doc"`
}

// StageInfo is the JSON-ready description of a stage, served by the
// discovery endpoint.
type StageInfo struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Payload     []StageField `json:"payload,omitempty"`
}

// stageTable is every stage, fixed at build time, in discovery order: the
// four pay-as-you-go stages of the paper (§3), the four connector stages and
// the advisor's batch stage.
var stageTable = []Stage{
	bootstrapStage, dataContextStage, feedbackStage, userContextStage,
	ingestStage, fetchStage, exportStage, qualityReportStage,
	feedbackBatchStage,
}

// StageInfos returns the discovery descriptions in table order.
func StageInfos() []StageInfo {
	out := make([]StageInfo, len(stageTable))
	for i, st := range stageTable {
		out[i] = StageInfo{Name: st.Name, Description: st.Description, Payload: st.Fields}
	}
	return out
}

// Resolve looks a request's stage up and decodes its payload — the shared
// validation step of every invocation path, so malformed requests fail
// before anything is enqueued or applied.
func Resolve(req StageRequest) (Stage, any, error) {
	i := slices.IndexFunc(stageTable, func(st Stage) bool { return st.Name == req.Stage })
	if i < 0 {
		return Stage{}, nil, fmt.Errorf("%w: %q", ErrUnknownStage, req.Stage)
	}
	st := stageTable[i]
	decode := st.Decode
	if decode == nil {
		decode = decodeNone(st.Name)
	}
	payload, err := decode(req.Payload)
	if err != nil {
		return Stage{}, nil, fmt.Errorf("%w: stage %q: %w", ErrBadPayload, st.Name, err)
	}
	return st, payload, nil
}

// emptyPayload reports a payload with no content: absent, null or {}.
func emptyPayload(raw json.RawMessage) bool {
	trimmed := bytes.TrimSpace(raw)
	return len(trimmed) == 0 || bytes.Equal(trimmed, []byte("null")) || bytes.Equal(trimmed, []byte("{}"))
}

// decodeNone is the codec of payload-less stages.
func decodeNone(name string) func(json.RawMessage) (any, error) {
	return func(raw json.RawMessage) (any, error) {
		if !emptyPayload(raw) {
			return nil, fmt.Errorf("stage %q takes no payload", name)
		}
		return nil, nil
	}
}

// decodeStrict unmarshals a payload rejecting unknown fields and trailing
// data, so typos and concatenated values in hand-written requests surface
// as 400s instead of silently-defaulted or partially-applied runs.
func decodeStrict(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after payload")
	}
	return nil
}

// dataContextPayload is the wire form of the data-context stage payload.
type dataContextPayload struct {
	// Relation is the reference relation; absent means the session
	// scenario's default reference data.
	Relation *relation.Relation `json:"relation"`
}

// FeedbackPayload is the typed payload of the feedback stage.
type FeedbackPayload struct {
	// Items are explicit annotations; empty asks the scenario oracle.
	Items []feedback.Item `json:"items,omitempty"`
	// Budget caps oracle-synthesised annotations; nil defaults to 100.
	Budget *int `json:"budget,omitempty"`
}

// userContextPayload is the wire form of the user-context stage payload.
type userContextPayload struct {
	// Model names a demonstration priority model ("crime" or "size").
	Model string `json:"model"`
}

// The four pay-as-you-go stages of the paper (§3).
var (
	bootstrapStage = Stage{
		Name:        StageBootstrap,
		Description: "step 1: fully automatic wrangling over the registered sources",
		Apply: func(ctx context.Context, s *Session, _ any) (Event, error) {
			return s.Step(ctx, StageBootstrap, nil)
		},
	}
	dataContextStage = Stage{
		Name:        StageDataContext,
		Description: "step 2: associate reference data ({\"relation\": ...}; default: the scenario's reference)",
		Fields: []StageField{
			{Name: "relation", Doc: "the reference relation (schema + tuples); omit for the scenario's default reference data"},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			if emptyPayload(raw) {
				return (*relation.Relation)(nil), nil
			}
			var p dataContextPayload
			if err := decodeStrict(raw, &p); err != nil {
				return nil, err
			}
			return p.Relation, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			rel, _ := payload.(*relation.Relation)
			return s.Step(ctx, StageDataContext, func(w *core.Wrangler) error {
				if rel == nil {
					if s.sc == nil {
						return core.ErrNoDataContext
					}
					rel = s.sc.AddressRef
				}
				w.AddDataContext(rel)
				return nil
			})
		},
	}
	feedbackStage = Stage{
		Name:        StageFeedback,
		Description: "step 3: correctness annotations ({\"items\": [...], \"budget\": n}; default: 100 oracle annotations)",
		Fields: []StageField{
			{Name: "items", Doc: "explicit feedback annotations keyed by (street, postcode, attr); empty asks the scenario oracle"},
			{Name: "budget", Doc: "cap on oracle-synthesised annotations (default 100)"},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			p := &FeedbackPayload{}
			if emptyPayload(raw) {
				return p, nil
			}
			if err := decodeStrict(raw, p); err != nil {
				return nil, err
			}
			return p, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			p, _ := payload.(*FeedbackPayload)
			if p == nil {
				p = &FeedbackPayload{}
			}
			budget := 100
			if p.Budget != nil {
				budget = *p.Budget
			}
			items := p.Items
			return s.Step(ctx, StageFeedback, func(w *core.Wrangler) error {
				if len(items) == 0 && s.sc != nil {
					items = core.OracleFeedback(s.sc, w.Result(), budget, s.seed)
				}
				w.AddFeedback(items...)
				return nil
			})
		},
	}
	userContextStage = Stage{
		Name:        StageUserContext,
		Description: "step 4: priority model over quality criteria ({\"model\": \"crime\"|\"size\"})",
		Fields: []StageField{
			{Name: "model", Doc: "demonstration priority model name: \"crime\" (default) or \"size\""},
		},
		Decode: func(raw json.RawMessage) (any, error) {
			var p userContextPayload
			if !emptyPayload(raw) {
				if err := decodeStrict(raw, &p); err != nil {
					return nil, err
				}
			}
			m, err := core.UserContextByName(p.Model)
			if err != nil {
				return nil, err
			}
			return m, nil
		},
		Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
			m, _ := payload.(*mcda.Model)
			return s.Step(ctx, StageUserContext, func(w *core.Wrangler) error {
				w.SetUserContext(m)
				return nil
			})
		},
	}
)

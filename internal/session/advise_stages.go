package session

import (
	"context"
	"encoding/json"
	"strconv"
	"time"

	"vada/internal/advise"
	"vada/internal/core"
	"vada/internal/feedback"
	"vada/internal/metrics"
	"vada/internal/trace"
)

// StageFeedbackBatch applies several feedback annotations — typically
// accepted advisor suggestions — as one journaled stage.
const StageFeedbackBatch = "feedback-batch"

// FeedbackBatchPayload is the wire form of the feedback-batch stage: the
// batch-acceptance half of the advisor loop. Explicit items and
// oracle-targeted attributes compose; duplicate annotations of one cell are
// deduplicated last-wins, so an agent can revise a judgement within a batch.
type FeedbackBatchPayload struct {
	// Items are explicit annotations, applied after any oracle items so an
	// explicit judgement always wins.
	Items []feedback.Item `json:"items,omitempty"`
	// Attrs asks the scenario oracle (when the session has one) for
	// annotations restricted to these attributes — the shape the advisor's
	// ready-to-POST actions use. Ignored on scenario-less sessions.
	Attrs []string `json:"attrs,omitempty"`
	// Budget caps oracle annotations per batch; nil defaults to 25.
	Budget *int `json:"budget,omitempty"`
}

// dedupFeedbackLastWins collapses duplicate annotations of one
// (street, postcode, attribute) cell: the last item wins and takes the
// first occurrence's position, so conflicting judgements in a batch resolve
// deterministically to the agent's final word.
func dedupFeedbackLastWins(items []feedback.Item) []feedback.Item {
	out := make([]feedback.Item, 0, len(items))
	type cell struct {
		key  feedback.Key
		attr string
	}
	at := map[cell]int{}
	for _, it := range items {
		key := cell{feedback.KeyOf(it.Street, it.Postcode), it.Attr}
		if i, ok := at[key]; ok {
			out[i] = it
			continue
		}
		at[key] = len(out)
		out = append(out, it)
	}
	return out
}

// oracleFeedbackForAttrs synthesises oracle annotations restricted to the
// given attributes. The oracle's draw sequence is budget-prefix-stable, so
// over-drawing and filtering keeps determinism while still landing close to
// the requested budget.
func oracleFeedbackForAttrs(s *Session, w *core.Wrangler, attrs []string, budget int) []feedback.Item {
	if s.sc == nil || len(attrs) == 0 || budget <= 0 {
		return nil
	}
	want := map[string]bool{}
	for _, a := range attrs {
		want[a] = true
	}
	var out []feedback.Item
	for _, it := range core.OracleFeedback(s.sc, w.Result(), budget*8, s.seed) {
		if want[it.Attr] {
			out = append(out, it)
			if len(out) == budget {
				break
			}
		}
	}
	return out
}

// feedbackBatchStage is the advisor's batch-acceptance stage.
var feedbackBatchStage = Stage{
	Name:        StageFeedbackBatch,
	Description: "advisor: accept several feedback suggestions as one journaled stage (items last-wins deduplicated)",
	Fields: []StageField{
		{Name: "items", Doc: "explicit feedback annotations; duplicates of one (street, postcode, attr) cell resolve last-wins"},
		{Name: "attrs", Doc: "attributes to draw oracle annotations for (scenario sessions only; the advisor's action shape)"},
		{Name: "budget", Doc: "cap on oracle annotations for this batch (default 25)"},
	},
	Decode: func(raw json.RawMessage) (any, error) {
		p := &FeedbackBatchPayload{}
		if emptyPayload(raw) {
			return p, nil
		}
		if err := decodeStrict(raw, p); err != nil {
			return nil, err
		}
		return p, nil
	},
	Apply: func(ctx context.Context, s *Session, payload any) (Event, error) {
		p, _ := payload.(*FeedbackBatchPayload)
		if p == nil {
			p = &FeedbackBatchPayload{}
		}
		budget := 25
		if p.Budget != nil {
			budget = *p.Budget
		}
		return s.Step(ctx, StageFeedbackBatch, func(w *core.Wrangler) error {
			// Oracle items first, explicit items after: last-wins dedup
			// then lets an agent's explicit judgement override the oracle.
			items := oracleFeedbackForAttrs(s, w, p.Attrs, budget)
			items = dedupFeedbackLastWins(append(items, p.Items...))
			w.AddFeedback(items...)
			if s.reg != nil {
				s.reg.Counter("advise_accepted_total").Inc()
				s.reg.Counter("advise_accepted_items_total").Add(int64(len(items)))
			}
			return nil
		})
	},
}

// Suggestions ranks candidate next actions for the session
// (advise.Suggest). The snapshot uses only concurrency-safe wrangler
// accessors, so ranking never blocks behind a running stage; the call
// records an advise.rank trace span and advise_* metrics.
func (s *Session) Suggestions(ctx context.Context) (_ []advise.Suggestion, retErr error) {
	if err := s.touch(); err != nil {
		return nil, err
	}
	span := trace.ChildFromContext(ctx, "advise.rank", "session", s.id)
	start := time.Now()
	st := advise.Snapshot(s.w)
	st.ScenarioBacked = s.sc != nil
	sugs := advise.Suggest(st)
	if span != nil {
		span.SetAttr("suggestions", strconv.Itoa(len(sugs)))
		span.EndErr(nil)
	}
	if s.reg != nil {
		s.reg.Counter("advise_rank_total").Inc()
		for _, sg := range sugs {
			s.reg.Counter(metrics.Name("advise_suggestions_total", "kind", sg.Kind)).Inc()
		}
		s.reg.Histogram("advise_rank_seconds").ObserveSince(start)
	}
	return sugs, nil
}

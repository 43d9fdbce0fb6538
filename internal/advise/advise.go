// Package advise implements the mixed-initiative advisor: ranked next-action
// suggestions computed from signals VADA already holds — quality reports,
// CFD violations, unmatched target attributes, MCDA criterion weights and
// feedback coverage. The system proposes, a human or agent approves (the
// feedback-batch stage), and the next ranking reflects the outcome: the
// propose→approve→learn loop of the paper's cost-effective wrangling claim,
// made programmatic.
package advise

import (
	"encoding/json"
	"fmt"
	"sort"

	"vada/internal/cfd"
	"vada/internal/core"
	"vada/internal/feedback"
	"vada/internal/mapping"
	"vada/internal/mcda"
	"vada/internal/quality"
)

// Suggestion kinds.
const (
	// KindStage suggests running a stage next (Target is the stage name).
	KindStage = "stage"
	// KindFeedback suggests annotating a result attribute (Target is the
	// attribute name).
	KindFeedback = "feedback"
	// KindMatch flags a target attribute no source covers (Target is the
	// attribute name).
	KindMatch = "match"
)

// Action is a ready-to-POST stage request: the body of
// POST /api/v1/sessions/{id}/stages/{stage}. It mirrors the wire shape of
// session.StageRequest without importing it (advise sits below session).
type Action struct {
	// Stage is the registered stage name to invoke.
	Stage string `json:"stage"`
	// Payload is the stage's JSON payload, pre-filled by the advisor.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Suggestion is one ranked next action.
type Suggestion struct {
	// Kind classifies the suggestion (KindStage, KindFeedback, KindMatch).
	Kind string `json:"kind"`
	// Target is what the suggestion is about: a stage name or an attribute.
	Target string `json:"target"`
	// Score ranks suggestions in [0,1], rounded to 4 decimals so repeated
	// rankings over the same knowledge base are byte-identical.
	Score float64 `json:"score"`
	// Rationale explains the suggestion in one human-readable sentence.
	Rationale string `json:"rationale"`
	// Action, when non-nil, is a stage request an agent can POST verbatim
	// to accept the suggestion.
	Action *Action `json:"action,omitempty"`
}

// State is the advisor's input: a point-in-time snapshot of everything a
// ranking draws on, assembled by Snapshot (plus the session-level
// ScenarioBacked bit). Keeping it a plain value makes advisors pluggable
// and trivially testable.
type State struct {
	// HasSources reports whether any source relation is registered.
	HasSources bool
	// HasContext reports whether any data-context relation is associated.
	HasContext bool
	// HasResult reports whether a wrangling result exists yet.
	HasResult bool
	// HasQualityReport reports whether a qr_result relation was published.
	HasQualityReport bool
	// ScenarioBacked reports whether the session has a ground-truth
	// scenario (so default stage payloads — oracle feedback, the scenario
	// reference — are applicable verbatim).
	ScenarioBacked bool
	// Report assesses the clean result (the zero-evidence report when
	// HasResult is false).
	Report quality.Report
	// Violations counts CFD-violating rows per violated attribute (the
	// CFD's RHS).
	Violations map[string]int
	// Weights are the user context's MCDA criterion weights, nil when no
	// user context is set.
	Weights map[mcda.Criterion]float64
	// FeedbackByAttr counts feedback items per annotated attribute.
	FeedbackByAttr map[string]int
	// FeedbackTotal is the total number of feedback items.
	FeedbackTotal int
	// UnmatchedTargets lists target-schema attributes with no source match
	// at or above the match threshold, sorted.
	UnmatchedTargets []string
	// MatchThreshold is the score floor a match must clear to count.
	MatchThreshold float64
}

// Snapshot assembles the advisor's State from a wrangler using only its
// concurrency-safe accessors, so rankings never block behind (or race with)
// a running stage.
func Snapshot(w *core.Wrangler) State {
	res := w.ResultClean()
	cfds := w.CFDs()
	items := w.FeedbackItems()
	st := State{
		HasSources:       w.KB.Count(core.PredSourceRegistered) > 0 || len(w.KB.RelationNames(core.RelSourcePrefix)) > 0,
		HasContext:       len(w.KB.RelationNames(core.RelContextPrefix)) > 0,
		HasResult:        res != nil,
		HasQualityReport: w.KB.Relation("qr_"+core.RelResult) != nil,
		Report:           quality.Assess(res, cfds, feedback.AccuracyByAttr(items)),
		Violations:       map[string]int{},
		Weights:          w.UserWeights(),
		FeedbackByAttr:   map[string]int{},
		FeedbackTotal:    len(items),
		MatchThreshold:   mapping.DefaultGenOptions().MatchThreshold, // what generation filters by
	}
	if res != nil {
		for _, c := range cfds {
			for _, v := range cfd.Violations(res, c) {
				st.Violations[v.Attr] += len(v.Rows)
			}
		}
	}
	for _, it := range items {
		if it.Attr != "" {
			st.FeedbackByAttr[it.Attr]++
		}
	}
	if target, ok := w.TargetSchema(); ok {
		matched := map[string]bool{}
		for _, m := range w.Matches() {
			if m.Score >= st.MatchThreshold {
				matched[m.TargetAttr] = true
			}
		}
		for _, a := range target.Attrs {
			if !matched[a.Name] {
				st.UnmatchedTargets = append(st.UnmatchedTargets, a.Name)
			}
		}
		sort.Strings(st.UnmatchedTargets)
	}
	return st
}

// Advisor ranks candidate next actions over a state snapshot. Heuristic and
// model-backed advisors interchange behind this interface; implementations
// must be deterministic over equal states (same input → same output bytes)
// so the service surface stays cacheable and testable.
type Advisor interface {
	Suggest(st State) []Suggestion
}

// Heuristic is the default advisor: fixed, explainable rules over the
// snapshot's signals, scores rounded to 4 decimals and ties broken
// lexicographically so a ranking is a pure function of the knowledge base.
type Heuristic struct{}

// NewHeuristic returns the default rule-based advisor.
func NewHeuristic() *Heuristic { return &Heuristic{} }

// round4 stabilises scores the way the quality transducer stabilises metric
// facts: 4 decimals is plenty for ranking and keeps JSON byte-identical.
func round4(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return float64(int64(f*10000+0.5)) / 10000
}

// feedbackKeyed reports whether the result schema carries the street and
// postcode attributes feedback items are keyed by; without them annotations
// cannot be joined back to rows and feedback suggestions are pointless.
func feedbackKeyed(rep quality.Report) bool {
	_, hasStreet := rep.Completeness["street"]
	_, hasPostcode := rep.Completeness["postcode"]
	return hasStreet && hasPostcode
}

// payload marshals a stage payload literal; the inputs are advisor-built
// maps, so a marshal failure is a programming error.
func payload(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("advise: marshal payload: %v", err))
	}
	return b
}

// Suggest applies the heuristic rules. An empty knowledge base (no sources,
// no result) yields an empty list: there is nothing to advise on until data
// arrives.
func (h *Heuristic) Suggest(st State) []Suggestion {
	var out []Suggestion
	if !st.HasResult {
		if !st.HasSources {
			return nil
		}
		return []Suggestion{{
			Kind:      KindStage,
			Target:    "bootstrap",
			Score:     0.95,
			Rationale: "sources are registered but nothing has been wrangled; bootstrap runs the fully automatic pass (paper §3 step 1)",
			Action:    &Action{Stage: "bootstrap"},
		}}
	}
	if !st.HasContext && st.ScenarioBacked {
		out = append(out, Suggestion{
			Kind:      KindStage,
			Target:    "data-context",
			Score:     0.85,
			Rationale: "no reference data is associated; data context enables CFD learning, repair and instance matching (paper §2.2)",
			Action:    &Action{Stage: "data-context"},
		})
	}
	if st.Weights == nil {
		out = append(out, Suggestion{
			Kind:      KindStage,
			Target:    "user-context",
			Score:     0.55,
			Rationale: "no user context is set; pairwise priorities steer mapping selection toward the criteria that matter (paper §2.2)",
			Action:    &Action{Stage: "user-context", Payload: payload(map[string]string{"model": "crime"})},
		})
	}
	if !st.HasQualityReport {
		out = append(out, Suggestion{
			Kind:      KindStage,
			Target:    "quality-report",
			Score:     0.35,
			Rationale: "no quality report has been published for the result; qr_result makes the metric vector exportable",
			Action:    &Action{Stage: "quality-report"},
		})
	}
	if feedbackKeyed(st.Report) {
		attrs := make([]string, 0, len(st.Report.Completeness))
		for a := range st.Report.Completeness {
			if a != "street" && a != "postcode" {
				attrs = append(attrs, a)
			}
		}
		sort.Strings(attrs)
		rows := st.Report.Rows
		if rows < 1 {
			rows = 1
		}
		for _, a := range attrs {
			if st.FeedbackByAttr[a] > 0 {
				continue
			}
			gap := 1 - st.Report.Completeness[a]
			violRate := float64(st.Violations[a]) / float64(rows)
			if violRate > 1 {
				violRate = 1
			}
			boost := st.Weights[mcda.Criterion{Metric: "completeness", Target: a}] +
				st.Weights[mcda.Criterion{Metric: "accuracy", Target: a}]
			if boost > 0.1 {
				boost = 0.1
			}
			out = append(out, Suggestion{
				Kind:   KindFeedback,
				Target: a,
				Score:  round4(0.4 + 0.3*gap + 0.2*violRate + boost),
				Rationale: fmt.Sprintf(
					"attribute %q: completeness %.2f, %d CFD-violating row(s), no feedback yet — annotations localise errors to sources and revise mapping selection (paper §2.3)",
					a, st.Report.Completeness[a], st.Violations[a]),
				Action: &Action{
					Stage:   "feedback-batch",
					Payload: payload(map[string]any{"attrs": []string{a}, "budget": 25}),
				},
			})
		}
	}
	for _, a := range st.UnmatchedTargets {
		out = append(out, Suggestion{
			Kind:   KindMatch,
			Target: a,
			Score:  0.3,
			Rationale: fmt.Sprintf(
				"target attribute %q has no source match scoring ≥ %.2f; ingest a source covering it or associate reference data that does",
				a, st.MatchThreshold),
			Action: &Action{Stage: "ingest"},
		})
	}
	for i := range out {
		out[i].Score = round4(out[i].Score)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// Package core assembles the VADA architecture (Figure 1): a knowledge
// base, the Vadalog reasoner, a registry of transducers for every wrangling
// activity, and a network transducer orchestrating them — exposed through
// the pay-as-you-go API of the demonstration (§3):
//
//	w := core.NewWrangler()             // or NewWrangler(WithMinCoverage(2))
//	w.RegisterWebSource(...)            // sources
//	w.SetTargetSchema(target)           // user context: target schema
//	w.Run(ctx)                          // step 1: automatic bootstrapping
//	w.AddDataContext("address", ref)    // step 2: data context
//	w.Run(ctx)
//	w.AddFeedback(items...)             // step 3: feedback
//	w.Run(ctx)
//	w.SetUserContext(model)             // step 4: user context priorities
//	w.Run(ctx)
//	result := w.Result()
//
// Every Run drives the orchestrator to quiescence; each context addition
// re-enables exactly the transducers whose declared input dependencies now
// hold, which is the paper's "dynamic orchestration" claim made executable.
// "Exactly" is literal: the orchestrator knows what each transducer read
// the last time it executed — the keys recorded while its dependency query
// and body ran — and executes a ready transducer only if one of those has
// moved. The knowledge base is the only hand-off between the suite's
// transducers, and between the API and them: facts, relations, and the cells
// below, values stored beside them, all read through the handle a body is
// given. Adding feedback runs feedback assimilation and what reads its
// output; it does not re-match sources against a data context that did not
// change.
package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"

	"vada/internal/cfd"
	"vada/internal/extract"
	"vada/internal/feedback"
	"vada/internal/kb"
	"vada/internal/mapping"
	"vada/internal/match"
	"vada/internal/mcda"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/transducer"
	"vada/internal/vadalog"
)

// Fact predicates of the standard transducer suite. Names follow the
// knowledge-base namespaces (kb.NS*).
const (
	PredSourceRegistered = "src_registered"   // src_registered(name)
	PredSourceExtracted  = "src_extracted"    // src_extracted(name)
	PredSourceSchema     = "src_schema"       // src_schema(name)
	PredSourceInstances  = "src_instances"    // src_instances(name)
	PredTargetSchema     = "uc_target_schema" // uc_target_schema(name)
	PredCriterion        = "uc_criterion"     // uc_criterion(ord, metric, target): registration order
	PredPriority         = "uc_priority"      // uc_priority(moreM, moreT, lessM, lessT, strength, ord): statement order
	PredReference        = "dc_reference"     // dc_reference(name)
	PredDCInstances      = "dc_instances"     // dc_instances(name)
	PredMatch            = "md_match"         // md_match(src, sattr, tattr, score, method)
	PredMapping          = "md_mapping"       // md_mapping(id, base)
	PredMapped           = "md_mapped"        // md_mapped(id, rows)
	PredCFD              = "md_cfd"           // md_cfd(key, support, confidence)
	PredQuality          = "md_quality"       // md_quality(object, metric, target, value)
	PredSelected         = "md_selected"      // md_selected(id, rank)
	PredResult           = "md_result"        // md_result(rows)
	PredAccuracy         = "md_accuracy"      // md_accuracy(source, attr, accuracy)
	PredFeedback         = "fb_item"          // fb_item(street, postcode, attr, correct)
	PredExport           = "md_export"        // md_export(relation, format, rows, bytes)
)

// Relation names and name prefixes in the knowledge base. The feedback items
// are the rows of feedback.RelItems.
const (
	RelSourcePrefix  = "src_" // extracted source relations
	RelContextPrefix = "dc_"  // data-context relations
	RelResultPrefix  = "res_" // per-mapping results
	RelResult        = "result"
	RelTarget        = "uc_target" // no rows: its schema is the target schema
)

// cell names a value of type T kept in the knowledge base beside its facts
// (kb.PutValue): the registered sources, and what one transducer derives for
// another and no fact records. A body loads it through the handle it was
// given, so the orchestrator sees cells read and moved like any other key.
// Cells live for the process: a restored wrangler registers its sources again
// and the next run recomputes the derived ones. Everything else — what the API
// was handed included — is facts and relations, and is what a snapshot holds.
type cell[T any] string

const (
	cellSources     cell[map[string]source]         = "core.sources"
	cellNameMatches cell[[]match.Match]             = "core.nameMatches"
	cellInstMatches cell[[]match.Match]             = "core.instMatches"
	cellRangeRules  cell[[]feedback.RangeRule]      = "core.rangeRules"
	cellMappings    cell[[]mapping.Mapping]         = "core.mappings" // sorted by ID
	cellCFDs        cell[[]cfd.CFD]                 = "core.cfds"
	cellReports     cell[map[string]quality.Report] = "core.reports" // by mapping ID

	// A body's own memory: what it last computed from, so that it redoes only
	// what moved (remember inputs, never hash outputs). Inputs of nobody: loaded
	// and stored through the wrangler's own handle, the way derive compares.
	cellExecuted cell[map[string]execution]   = "core.executed" // by mapping ID
	cellAssessed cell[map[string]assessment]  = "core.assessed" // by mapping ID
	cellJoins    cell[*mapping.SourceProfile] = "core.joins"
)

// get loads the cell through k: the zero T until something is set.
func (c cell[T]) get(k *kb.KB) T {
	v, _ := k.Value(string(c)).(T)
	return v
}

// set stores v and moves the cell. v is never mutated afterwards: the next
// value is a new one.
func (c cell[T]) set(k *kb.KB, v T) { k.PutValue(string(c), v) }

// derive is set for a computed value: it leaves the cell alone when v equals
// what it holds, because a transducer that re-derives the same matches or
// rules must not make its readers run. It compares through the wrangler's own
// handle, which records nothing: what a body writes is not an input of it.
func derive[T any](w *Wrangler, c cell[T], v T) {
	if !reflect.DeepEqual(c.get(w.KB), v) {
		c.set(w.KB, v)
	}
}

// The suite's fixed settings: what no binary varies is a constant, and the
// two settings a caller may vary are the Option setters of options.go. Mapping
// generation and the advisor filter matches by mapping.DefaultGenOptions,
// CFD learning mines with cfd.DefaultMineOptions.
const (
	// rangeRuleSupport is the minimal feedback support of a plausibility rule.
	rangeRuleSupport = 3
	// fusionBlockAttr is the result attribute duplicate detection blocks on;
	// tuples lacking it are never considered duplicates.
	fusionBlockAttr = "postcode"
	// fusionIdentityAttr is the result attribute whose normalised equality
	// identifies duplicates within a block.
	fusionIdentityAttr = "street"
)

// source is a registered source: a deep-web source awaiting extraction or,
// when direct is set, an already-extracted relation.
type source struct {
	template extract.SiteTemplate
	pages    []extract.Page
	schema   relation.Schema
	examples []extract.Annotation
	direct   *relation.Relation
}

// Wrangler is the VADA system facade.
type Wrangler struct {
	// KB is the shared knowledge base (exported for inspection and the web
	// UI; treat as read-mostly from outside).
	KB *kb.KB

	// minCoverage is mapping generation's MinCoverage (WithMinCoverage).
	minCoverage int
	engine      *vadalog.Engine
	orch        *transducer.Orchestrator
	reg         *transducer.Registry

	// runMu serialises Run: the orchestrator mutates shared state (trace,
	// last-run versions, the wrangler's own caches) and is not safe for two
	// concurrent runs. Independent Wranglers run fully in parallel.
	runMu sync.Mutex

	// mu serialises the two read-modify-writes of the API: source
	// registration and the feedback append.
	mu sync.Mutex
}

// NewWrangler builds a Wrangler with the standard transducer suite
// registered, then applies the options.
func NewWrangler(options ...Option) *Wrangler {
	w := &Wrangler{
		KB:          kb.New(),
		minCoverage: mapping.DefaultGenOptions().MinCoverage,
		engine:      vadalog.NewEngine(),
		reg:         transducer.NewRegistry(),
	}
	w.registerStandardSuite()
	w.orch = transducer.NewOrchestrator(w.KB, w.reg)
	for _, opt := range options {
		opt(w)
	}
	return w
}

// Registry exposes the transducer registry so developers can contribute
// additional transducers (§4: "developers can contribute to data wrangling
// by adding in new components as transducers").
func (w *Wrangler) Registry() *transducer.Registry { return w.reg }

// RegisterWebSource registers a deep-web source: pages rendered by the given
// template plus a few annotated example values for wrapper induction. The
// extraction transducer becomes ready immediately.
func (w *Wrangler) RegisterWebSource(tmpl extract.SiteTemplate, schema relation.Schema, pages []extract.Page, examples []extract.Annotation) {
	w.register(schema.Name, source{template: tmpl, pages: pages, schema: schema, examples: examples})
}

// RegisterSource registers an already-extracted source relation (e.g. an
// open-government CSV download).
func (w *Wrangler) RegisterSource(rel *relation.Relation) {
	w.register(rel.Schema.Name, source{direct: rel.Clone()})
}

// register puts a copy of the source registry with the source added and
// announces it.
func (w *Wrangler) register(name string, src source) {
	w.mu.Lock()
	next := map[string]source{}
	maps.Copy(next, cellSources.get(w.KB))
	next[name] = src
	cellSources.set(w.KB, next)
	w.mu.Unlock()
	w.KB.Assert(PredSourceRegistered, relation.NewTuple(name))
}

// SetTargetSchema supplies the user-context target schema (§2.2): the schema
// of a relation without rows.
func (w *Wrangler) SetTargetSchema(s relation.Schema) {
	w.KB.PutRelation(RelTarget, relation.New(s.WithName(s.Name))) // s stays the caller's
	w.KB.Assert(PredTargetSchema, relation.NewTuple(s.Name))
}

// TargetSchema returns the user-context target schema and whether one has
// been set — the attribute vocabulary connector header-mapping inference
// matches external columns against.
func (w *Wrangler) TargetSchema() (relation.Schema, bool) { return targetSchema(w.KB) }

// targetSchema loads the target schema through k.
func targetSchema(k *kb.KB) (relation.Schema, bool) {
	if r := k.Relation(RelTarget); r != nil {
		return r.Schema, true
	}
	return relation.Schema{}, false
}

// AddDataContext associates the target schema with reference/master/example
// data (§2.2, Figure 2(c)); alias maps context attribute names onto target
// attribute names when they differ.
func (w *Wrangler) AddDataContext(rel *relation.Relation) {
	name := rel.Schema.Name
	w.KB.PutRelation(RelContextPrefix+name, rel.Clone()) // rel stays the caller's
	w.KB.Assert(PredReference, relation.NewTuple(name))
	w.KB.Assert(PredDCInstances, relation.NewTuple(name))
}

// AddFeedback records user feedback (§2.3, step 3 of the demonstration): the
// items join the rows of feedback.RelItems in arrival order — the relation is
// replaced by one that shares the old rows — and each judgement is asserted as
// a fact.
func (w *Wrangler) AddFeedback(items ...feedback.Item) {
	w.mu.Lock()
	w.KB.PutRelation(feedback.RelItems, feedback.AppendItems(w.KB.Relation(feedback.RelItems), items...))
	w.mu.Unlock()
	for _, it := range items {
		w.KB.Assert(PredFeedback, relation.NewTuple(it.Street, it.Postcode, it.Attr, it.Correct))
	}
}

// FeedbackItems returns every feedback item the wrangler holds, in arrival
// order, observed and corrected values included.
func (w *Wrangler) FeedbackItems() []feedback.Item { return feedbackItems(w.KB) }

// feedbackItems decodes the feedback items through k.
func feedbackItems(k *kb.KB) []feedback.Item { return feedback.Items(k.Relation(feedback.RelItems)) }

// SetUserContext installs the pairwise priorities of §2.2 / Figure 2(d) as
// they stand now, as facts: a model the caller goes on editing takes effect
// when it is set again. The facts replace those of the previous model (a
// wrangler weighs by what the knowledge base holds, and must not weigh by the
// union of two models) and carry their position: AHP weights depend, in the
// last bit, on the order criteria were registered in, and a snapshot does not
// keep the order facts were asserted in.
func (w *Wrangler) SetUserContext(m *mcda.Model) {
	var criteria, priorities []relation.Tuple
	for i, c := range m.Criteria() {
		criteria = append(criteria, relation.NewTuple(i, c.Metric, c.Target))
	}
	for i, c := range m.Comparisons() {
		priorities = append(priorities, relation.NewTuple(
			c.More.Metric, c.More.Target, c.Less.Metric, c.Less.Target, int(c.Strength), i))
	}
	replaceFacts(w.KB, PredCriterion, criteria)
	replaceFacts(w.KB, PredPriority, priorities)
}

// Run drives orchestration to quiescence and returns the steps taken.
// Concurrent calls are serialised; context and feedback may still be added
// from other goroutines while a run is in flight.
func (w *Wrangler) Run(ctx context.Context) ([]transducer.Step, error) {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	return w.orch.RunToQuiescence(ctx)
}

// Trace returns the most recent orchestration steps (at most
// transducer.TraceCap; Step.Seq keeps counting across the ones dropped).
func (w *Wrangler) Trace() []transducer.Step {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	return w.orch.Trace()
}

// Result returns the current wrangling result including the provenance
// column, or nil before the first fusion: the relation the knowledge base
// holds, shared — read it, do not write to it (kb.Relation).
func (w *Wrangler) Result() *relation.Relation { return w.KB.Relation(RelResult) }

// ResultRows returns the current result cardinality (0 before the first
// fusion).
func (w *Wrangler) ResultRows() int { return w.KB.RelationCardinality(RelResult) }

// ResultClean returns the result without the provenance column.
func (w *Wrangler) ResultClean() *relation.Relation {
	res := w.Result()
	if res == nil {
		return nil
	}
	var keep []string
	for _, a := range res.Schema.Attrs {
		if a.Name != mapping.ProvenanceAttr {
			keep = append(keep, a.Name)
		}
	}
	out, err := res.Project(keep...)
	if err != nil {
		return res
	}
	return out
}

// Mappings returns the current candidate mappings, sorted by ID.
func (w *Wrangler) Mappings() []mapping.Mapping { return slices.Clone(cellMappings.get(w.KB)) }

// CFDs returns the learned CFDs.
func (w *Wrangler) CFDs() []cfd.CFD { return slices.Clone(cellCFDs.get(w.KB)) }

// Matches returns the current combined, feedback-revised matches: what
// md_match holds, ordered by source relation, source attribute and target
// attribute.
func (w *Wrangler) Matches() []match.Match {
	ms := matchesFromFacts(w.KB)
	slices.SortFunc(ms, func(a, b match.Match) int {
		return cmp.Or(strings.Compare(a.SourceRel, b.SourceRel),
			strings.Compare(a.SourceAttr, b.SourceAttr), strings.Compare(a.TargetAttr, b.TargetAttr))
	})
	return ms
}

// SelectedMappings returns the IDs chosen by mapping selection, by rank.
func (w *Wrangler) SelectedMappings() []string {
	facts := w.KB.Facts(PredSelected)
	sort.Slice(facts, func(i, j int) bool { return facts[i][1].IntVal() < facts[j][1].IntVal() })
	out := make([]string, len(facts))
	for i, f := range facts {
		out[i] = f[0].Str()
	}
	return out
}

// UserWeights derives the current MCDA criterion weights from the installed
// user context, nil when none has been provided (or its comparisons are
// inconsistent) — the selection signal the advisor reads to bias suggestions
// toward attributes the user has declared they care about.
func (w *Wrangler) UserWeights() map[mcda.Criterion]float64 { return userWeights(w.KB) }

// userWeights derives the criterion weights of the user model k holds.
func userWeights(k *kb.KB) map[mcda.Criterion]float64 {
	m := userModel(k)
	if m == nil {
		return nil
	}
	weights, _, err := m.Weights()
	if err != nil {
		return nil
	}
	return weights
}

// userModel rebuilds the priority model from the facts SetUserContext stated,
// in the order it stated them; nil when there are none. A model has at most a
// handful of criteria, so it is built per read rather than kept.
func userModel(k *kb.KB) *mcda.Model {
	criteria := slices.DeleteFunc(k.Facts(PredCriterion), func(f relation.Tuple) bool { return len(f) != 3 })
	priorities := slices.DeleteFunc(k.Facts(PredPriority), func(f relation.Tuple) bool { return len(f) != 6 })
	if len(criteria) == 0 && len(priorities) == 0 {
		return nil
	}
	byOrdinal := func(at int) func(a, b relation.Tuple) int {
		return func(a, b relation.Tuple) int { return cmp.Compare(a[at].IntVal(), b[at].IntVal()) }
	}
	slices.SortFunc(criteria, byOrdinal(0))
	slices.SortFunc(priorities, byOrdinal(5))
	m := mcda.NewModel()
	for _, f := range criteria {
		m.AddCriterion(mcda.Criterion{Metric: f[1].Str(), Target: f[2].Str()})
	}
	for _, f := range priorities {
		more := mcda.Criterion{Metric: f[0].Str(), Target: f[1].Str()}
		less := mcda.Criterion{Metric: f[2].Str(), Target: f[3].Str()}
		_ = m.AddComparison(more, less, mcda.Strength(f[4].IntVal())) // an unusable statement (hand-edited snapshot) is not stated
	}
	return m
}

// Architecture renders the component graph of Figure 1 as wired in this
// instance: experiment E-F1's artefact. Under each transducer that has
// executed is the input set of its last execution — what has to move for it
// to run again.
func (w *Wrangler) Architecture() string {
	w.runMu.Lock()
	defer w.runMu.Unlock()
	var b strings.Builder
	b.WriteString("VADA architecture (Figure 1)\n")
	b.WriteString("  User Interface / API ── user context, data context, feedback ──▶ Knowledge Base\n")
	b.WriteString("  Knowledge Base ◀── facts, metrics, matches, mappings ── Transducers\n")
	b.WriteString("  Vadalog Reasoner ── dependency queries, mappings ── Knowledge Base\n")
	b.WriteString("  Network transducer: " + w.orch.Network.Name() + "\n")
	b.WriteString("  Transducers:\n")
	for _, t := range w.reg.All() {
		d := t.Dependency()
		q := d.Query
		if q == "" {
			q = "(always)"
		}
		fmt.Fprintf(&b, "    %-24s [%-12s] needs %s\n", t.Name(), t.Activity(), q)
		if in := w.orch.Inputs(t.Name()); in != nil {
			names := make([]string, len(in))
			for i, key := range in {
				names[i] = key.String()
			}
			fmt.Fprintf(&b, "    %-24s last read: %s\n", "", strings.Join(names, ", "))
		}
	}
	return b.String()
}

// --- knowledge-base helpers ----------------------------------------------

// replaceFacts swaps the facts of pred for the new set, but only when the
// sets differ — preserving orchestration quiescence. It returns (asserted,
// retracted).
func replaceFacts(k *kb.KB, pred string, next []relation.Tuple) (int, int) {
	const inCurrent, inNext = 1, 2
	current := k.Facts(pred)
	in := relation.NewTally(len(current) + len(next))
	for _, t := range current {
		*in.Add(t) = inCurrent
	}
	same := len(current) == len(next)
	for _, t := range next {
		n := in.Add(t)
		same = same && *n&inCurrent != 0
		*n |= inNext
	}
	if same {
		return 0, 0
	}
	retracted := 0
	for _, t := range current {
		if *in.Find(t)&inNext == 0 && k.Retract(pred, t) {
			retracted++
		}
	}
	asserted := 0
	for _, t := range next {
		if k.Assert(pred, t) {
			asserted++
		}
	}
	return asserted, retracted
}

package core

import (
	"fmt"
	"math/rand"

	"vada/internal/datagen"
	"vada/internal/extract"
	"vada/internal/feedback"
	"vada/internal/mcda"
	"vada/internal/relation"
)

// BuildScenarioWrangler wires the paper's demonstration scenario (§2.1) into
// a Wrangler: the two property portals are registered as deep-web sources
// (their noisy relations rendered to HTML pages, to be recovered by wrapper
// induction), the deprivation table as a direct open-government source, and
// the target schema of Figure 2(b) is installed. The data context, feedback
// and user context are NOT installed — they are the pay-as-you-go steps.
func BuildScenarioWrangler(sc *datagen.Scenario, options ...Option) *Wrangler {
	w := NewWrangler(options...)

	rmTmpl := extract.RightmoveTemplate()
	rmPages := extract.GeneratePages(rmTmpl, sc.Rightmove)
	w.RegisterWebSource(rmTmpl, sc.Rightmove.Schema, rmPages,
		extract.BootstrapAnnotations(sc.Rightmove, exampleRows(sc.Rightmove)))

	otTmpl := extract.OnTheMarketTemplate()
	otPages := extract.GeneratePages(otTmpl, sc.OnTheMarket)
	w.RegisterWebSource(otTmpl, sc.OnTheMarket.Schema, otPages,
		extract.BootstrapAnnotations(sc.OnTheMarket, exampleRows(sc.OnTheMarket)))

	w.RegisterSource(sc.Deprivation)
	w.SetTargetSchema(datagen.TargetSchema())
	return w
}

// exampleRows picks annotation rows for wrapper induction: starting from the
// top of the listing, rows are added until every attribute has at least one
// non-null example (capped at ten rows). This mirrors what an annotator
// does — point at listings that actually display each field; a listing with
// a missing postcode teaches nothing about postcodes.
func exampleRows(r *relation.Relation) []int {
	const maxRows = 10
	needed := map[int]bool{}
	for i := 0; i < r.Schema.Arity(); i++ {
		needed[i] = true
	}
	var rows []int
	for i := 0; i < r.Cardinality() && len(rows) < maxRows; i++ {
		useful := len(rows) < 2 // always take a couple for record-boundary induction
		for ai := range needed {
			if !r.Tuples[i][ai].IsNull() {
				useful = true
			}
		}
		if !useful {
			continue
		}
		rows = append(rows, i)
		for ai := range needed {
			if !r.Tuples[i][ai].IsNull() {
				delete(needed, ai)
			}
		}
		if len(needed) == 0 && len(rows) >= 2 {
			break
		}
	}
	return rows
}

// CrimeAnalysisUserContext encodes Figure 2(d): the user studies property
// prices against crime levels, so crimerank completeness dominates type
// accuracy, property consistency beats bedrooms completeness, and street
// completeness moderately beats postcode completeness.
func CrimeAnalysisUserContext() *mcda.Model {
	m := mcda.NewModel()
	mustAdd(m, mcda.Criterion{Metric: "completeness", Target: "crimerank"},
		mcda.Criterion{Metric: "accuracy", Target: "type"}, mcda.VeryStrongly)
	mustAdd(m, mcda.Criterion{Metric: "consistency", Target: "target"},
		mcda.Criterion{Metric: "completeness", Target: "bedrooms"}, mcda.Strongly)
	mustAdd(m, mcda.Criterion{Metric: "completeness", Target: "street"},
		mcda.Criterion{Metric: "completeness", Target: "postcode"}, mcda.Moderately)
	return m
}

// SizeAnalysisUserContext encodes the paper's §2.2 variation: the user now
// studies property size against crime, so bedrooms completeness becomes the
// dominant feature.
func SizeAnalysisUserContext() *mcda.Model {
	m := mcda.NewModel()
	mustAdd(m, mcda.Criterion{Metric: "completeness", Target: "bedrooms"},
		mcda.Criterion{Metric: "accuracy", Target: "type"}, mcda.VeryStrongly)
	mustAdd(m, mcda.Criterion{Metric: "completeness", Target: "bedrooms"},
		mcda.Criterion{Metric: "completeness", Target: "crimerank"}, mcda.Strongly)
	return m
}

// UserContextByName resolves the demonstration's user-context models by
// name: "crime" (Figure 2(d)) or "size" (the §2.2 variation). The empty
// name defaults to crime analysis; anything else is ErrUnknownUserContext.
func UserContextByName(name string) (*mcda.Model, error) {
	switch name {
	case "", "crime":
		return CrimeAnalysisUserContext(), nil
	case "size":
		return SizeAnalysisUserContext(), nil
	default:
		return nil, fmt.Errorf("%w: %q (want crime|size)", ErrUnknownUserContext, name)
	}
}

func mustAdd(m *mcda.Model, more, less mcda.Criterion, s mcda.Strength) {
	if err := m.AddComparison(more, less, s); err != nil {
		panic(err)
	}
}

// OracleFeedback simulates the §3 step-3 user: sample budget result cells
// over the scored attributes and annotate each correct/incorrect according
// to ground truth. Tuples whose address the oracle cannot resolve produce
// tuple-level negative feedback.
func OracleFeedback(sc *datagen.Scenario, result *relation.Relation, budget int, seed int64) []feedback.Item {
	if result == nil || result.Cardinality() == 0 || budget <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	si := result.Schema.AttrIndex("street")
	pi := result.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 {
		return nil
	}
	attrs := []string{}
	for _, a := range datagen.ScoredAttributes {
		if result.Schema.HasAttr(a) {
			attrs = append(attrs, a)
		}
	}
	var items []feedback.Item
	seen := map[string]bool{}
	for len(items) < budget && len(seen) < result.Cardinality()*len(attrs) {
		row := rng.Intn(result.Cardinality())
		attr := attrs[rng.Intn(len(attrs))]
		key := fmt.Sprintf("%d|%s", row, attr)
		if seen[key] {
			continue
		}
		seen[key] = true
		street := result.Tuples[row][si].String()
		postcode := result.Tuples[row][pi].String()
		if _, ok := sc.Oracle.Lookup(street, postcode); !ok {
			items = append(items, feedback.Item{Street: street, Postcode: postcode, Correct: false})
			continue
		}
		ai := result.Schema.AttrIndex(attr)
		v := result.Tuples[row][ai]
		if v.IsNull() {
			continue // nothing to judge
		}
		items = append(items, feedback.Item{
			Street: street, Postcode: postcode, Attr: attr,
			Correct:  sc.Oracle.CellCorrect(street, postcode, attr, v),
			Observed: v, HasObserved: true,
		})
	}
	return items
}

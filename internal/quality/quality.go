// Package quality implements VADA's quality-metric transducer (§2.3): it
// estimates completeness, consistency and density for relations, producing the metric vectors that source and mapping selection
// score against the user context.
package quality

import (
	"fmt"
	"maps"
	"sort"

	"vada/internal/cfd"
	"vada/internal/mcda"
	"vada/internal/relation"
)

// Completeness returns the fraction of non-null values in the named
// attribute (the paper's example: completeness of crimerank as the fraction
// of non-null values).
func Completeness(rel *relation.Relation, attr string) (float64, error) {
	if !rel.Schema.HasAttr(attr) {
		return 0, fmt.Errorf("quality: %s has no attribute %q", rel.Schema.Name, attr)
	}
	return CompletenessAll(rel)[attr], nil
}

// CompletenessAll returns per-attribute completeness for the relation, counted
// in one pass over its rows; a nil relation yields an empty map.
func CompletenessAll(rel *relation.Relation) map[string]float64 {
	if rel == nil {
		return map[string]float64{}
	}
	nonNull := make([]int, rel.Schema.Arity())
	for _, t := range rel.Tuples {
		for i, v := range t[:len(nonNull)] {
			if !v.IsNull() {
				nonNull[i]++
			}
		}
	}
	out := make(map[string]float64, len(nonNull))
	for i, a := range rel.Schema.Attrs {
		out[a.Name] = float64(nonNull[i]) / float64(max(len(rel.Tuples), 1)) // no rows: 0
	}
	return out
}

// Density is the overall fraction of non-null cells. Nil and empty
// relations are deterministically 0.0 — no cells means no evidence of
// density — never NaN, so consumers assessing blank sessions (the advisor
// before any ingest) need no guards of their own.
func Density(rel *relation.Relation) float64 {
	if rel == nil || rel.Cardinality() == 0 || rel.Schema.Arity() == 0 {
		return 0
	}
	n := 0
	for _, t := range rel.Tuples {
		for _, v := range t {
			if !v.IsNull() {
				n++
			}
		}
	}
	return float64(n) / float64(rel.Cardinality()*rel.Schema.Arity())
}

// Consistency measures 1 − violation rate against the given CFDs. With no
// CFDs available it is 1 by convention (no evidence of inconsistency) —
// which is exactly why the paper's §2.3 notes that determining consistency
// *needs* the data context. Nil and empty relations are deterministically
// 1.0, never NaN.
func Consistency(rel *relation.Relation, cfds []cfd.CFD) float64 {
	if rel == nil {
		return 1
	}
	return cfd.ConsistencyRate(rel, cfds)
}

// Report is the metric vector for one relation (source, mapping result or
// final result), as asserted into the knowledge base by the quality
// transducer.
type Report struct {
	// Relation names the assessed relation.
	Relation string
	// Rows is its cardinality.
	Rows int
	// Completeness maps attribute → non-null fraction.
	Completeness map[string]float64
	// Density is the overall non-null cell fraction.
	Density float64
	// Consistency is 1 − CFD violation rate (1 when no CFDs known).
	Consistency float64
	// Accuracy maps attribute → estimated correctness (from feedback);
	// empty until feedback exists.
	Accuracy map[string]float64
}

// Assess computes a Report. cfds and accuracy may be nil, and so may rel: a
// nil relation assesses as the zero-evidence report (0 rows, density 0.0,
// consistency 1.0, no completeness entries).
func Assess(rel *relation.Relation, cfds []cfd.CFD, accuracy map[string]float64) Report {
	name := ""
	rows := 0
	if rel != nil {
		name = rel.Schema.Name
		rows = rel.Cardinality()
	}
	return Report{
		Relation:     name,
		Rows:         rows,
		Completeness: CompletenessAll(rel),
		Density:      Density(rel),
		Consistency:  Consistency(rel, cfds),
	}.WithAccuracy(accuracy)
}

// WithAccuracy returns the report with its accuracy part replaced by a copy
// of accuracy (empty for nil): the one part of a report that is not a function
// of the relation and the CFDs.
func (r Report) WithAccuracy(accuracy map[string]float64) Report {
	r.Accuracy = make(map[string]float64, len(accuracy))
	maps.Copy(r.Accuracy, accuracy)
	return r
}

// DefaultScore is the score of a result or source when no user context
// weighs the criteria: mean completeness blended with consistency. The mean
// adds the attributes in name order, not map order: float addition is not
// associative, and candidates an ulp apart must rank the same every time.
func (r Report) DefaultScore() float64 {
	attrs := make([]string, 0, len(r.Completeness))
	for a := range r.Completeness {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	mean := 0.0
	for _, a := range attrs {
		mean += r.Completeness[a]
	}
	if len(attrs) > 0 {
		mean /= float64(len(attrs))
	}
	return (mean + r.Consistency) / 2
}

// Criteria flattens the report into an mcda criterion vector:
// completeness(attr) per attribute, consistency(relation) and
// accuracy(relation.attr) per known accuracy, so the user context's pairwise
// priorities can score it directly.
func (r Report) Criteria() map[mcda.Criterion]float64 {
	out := map[mcda.Criterion]float64{}
	for attr, v := range r.Completeness {
		out[mcda.Criterion{Metric: "completeness", Target: attr}] = v
	}
	out[mcda.Criterion{Metric: "consistency", Target: r.Relation}] = r.Consistency
	for attr, v := range r.Accuracy {
		out[mcda.Criterion{Metric: "accuracy", Target: r.Relation + "." + attr}] = v
		// Also expose the unqualified form so user contexts written against
		// the target schema ("accuracy(property.type)" vs "accuracy(type)")
		// can resolve either way.
		out[mcda.Criterion{Metric: "accuracy", Target: attr}] = v
	}
	return out
}

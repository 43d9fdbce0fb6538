// Package feedback implements VADA's feedback loop (§2.3, demonstration
// step 3): users annotate result tuples or cells as correct/incorrect
// (optionally supplying the right value); the feedback is assimilated into
//
//   - direct corrections applied to the result,
//   - per-source, per-attribute accuracy estimates (quality metrics),
//   - learned plausibility ranges that catch systematic extraction errors
//     (the paper's master-bedroom-area-as-bedroom-count example), and
//   - revised match scores, the "mapping evaluation transducer may identify
//     a problem with a specific match used within the mapping" walk-through.
package feedback

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"

	"vada/internal/match"
	"vada/internal/relation"
)

// Item is one feedback annotation. Tuples are identified by their
// (street, postcode) key, the natural key of the demonstration's target.
type Item struct {
	// Street and Postcode identify the annotated result tuple.
	Street, Postcode string
	// Attr is the annotated attribute; empty for tuple-level feedback.
	Attr string
	// Correct is the user's verdict.
	Correct bool
	// Corrected optionally carries the right value (only meaningful when
	// Correct is false and Attr is set).
	Corrected relation.Value
	// HasCorrection distinguishes "wrong, here's the fix" from "wrong".
	HasCorrection bool
	// Observed is the value the user actually judged, captured at
	// annotation time. Feedback outlives result revisions, so learning
	// from Observed (rather than re-reading the evolving result) keeps
	// assimilation stable.
	Observed relation.Value
	// HasObserved marks whether Observed was captured.
	HasObserved bool
}

// Corrects reports whether Apply changes a cell for the item: it judges an
// attribute incorrect.
func (it Item) Corrects() bool { return it.Attr != "" && !it.Correct }

// String renders the item.
func (it Item) String() string {
	verdict := "correct"
	if !it.Correct {
		verdict = "incorrect"
		if it.HasCorrection {
			verdict += fmt.Sprintf(" (should be %v)", it.Corrected)
		}
	}
	scope := it.Attr
	if scope == "" {
		scope = "tuple"
	}
	return fmt.Sprintf("[%s | %s] %s: %s", it.Street, it.Postcode, scope, verdict)
}

// RelItems names the knowledge-base relation that holds a session's feedback:
// one row per item, in arrival order. The fb_item facts beside it carry the
// judgement only; the observed and corrected values live here.
const RelItems = "fb_items"

// itemsSchema is the schema of RelItems. The corrected and observed columns
// are untyped: each holds a value of whatever kind the annotated attribute
// has, null when its flag column is false (and when the value itself is null).
var itemsSchema = relation.NewSchema(RelItems, "street", "postcode", "attr", "correct:bool",
	"corrected:null", "has_correction:bool", "observed:null", "has_observed:bool")

// row encodes the item as a row of RelItems.
func (it Item) row() relation.Tuple {
	return relation.NewTuple(it.Street, it.Postcode, it.Attr, it.Correct,
		it.Corrected, it.HasCorrection, it.Observed, it.HasObserved)
}

// AppendItems returns RelItems with the items added after the rows of rel —
// the relation as it stands, nil before the first item — which is not
// written to: the new relation shares its rows. An item equal to an earlier
// one is a row of its own. A relation of another schema (an imported snapshot
// may carry anything under the name) is replaced, not extended.
func AppendItems(rel *relation.Relation, items ...Item) *relation.Relation {
	out := &relation.Relation{Schema: itemsSchema}
	if rel != nil && rel.Schema.Equal(itemsSchema) {
		out = rel.Shallow()
	}
	for _, it := range items {
		out.Tuples = append(out.Tuples, it.row())
	}
	return out
}

// Items decodes the rows of RelItems, in order; nil for a nil relation. Rows
// of any other arity — a relation this package did not write — are skipped.
func Items(rel *relation.Relation) []Item {
	if rel == nil {
		return nil
	}
	out := make([]Item, 0, len(rel.Tuples))
	for _, t := range rel.Tuples {
		if len(t) != itemsSchema.Arity() {
			continue
		}
		out = append(out, Item{
			Street: t[0].Str(), Postcode: t[1].Str(), Attr: t[2].Str(), Correct: t[3].BoolVal(),
			Corrected: t[4], HasCorrection: t[5].BoolVal(),
			Observed: t[6], HasObserved: t[7].BoolVal(),
		})
	}
	return out
}

// Key is the key that matches feedback to result rows: the street trimmed and
// lower-cased, the postcode trimmed, lower-cased and stripped of spaces, the
// two compared apart so that no spelling of one reaches into the other.
type Key struct{ street, postcode string }

// KeyOf is the key of a street and a postcode.
func KeyOf(street, postcode string) Key {
	return Key{strings.ToLower(strings.TrimSpace(street)),
		strings.ToLower(strings.ReplaceAll(strings.TrimSpace(postcode), " ", ""))}
}

// Keys indexes the rows of a relation by their key: which rows an item
// annotates. Building it normalises every row's street and postcode once; each
// item then costs one normalisation and a lookup.
type Keys struct {
	rows map[Key][]int
}

// IndexKeys indexes the rows of res by KeyOf. Rows without a street and a
// postcode are in no entry.
func IndexKeys(res *relation.Relation) *Keys {
	ix := &Keys{rows: map[Key][]int{}}
	si, pi := res.Schema.AttrIndex("street"), res.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 {
		return ix
	}
	for row, t := range res.Tuples {
		if s, p := t[si], t[pi]; !s.IsNull() || !p.IsNull() {
			key := KeyOf(s.String(), p.String())
			ix.rows[key] = append(ix.rows[key], row)
		}
	}
	return ix
}

// Rows lists the rows the item annotates, in row order.
func (ix *Keys) Rows(it Item) []int { return ix.rows[KeyOf(it.Street, it.Postcode)] }

// Apply patches the result with attribute-level corrections: cells the user
// corrected get the corrected value; cells marked incorrect without a
// correction are nulled (better absent than wrong — they become repairable
// or fusible later). keys indexes res. The input is not modified: the patched
// relation shares the rows no correction touches. Returns it and the number of
// cells changed. Items apply in order, so of two corrections of one cell the
// later wins.
func Apply(res *relation.Relation, keys *Keys, items []Item) (*relation.Relation, int) {
	out := res.Shallow()
	changed := 0
	for _, it := range items {
		if !it.Corrects() {
			continue
		}
		ai := out.Schema.AttrIndex(it.Attr)
		if ai < 0 {
			continue
		}
		newV := relation.Null()
		if it.HasCorrection {
			newV = it.Corrected
		}
		for _, row := range keys.Rows(it) {
			if !out.Tuples[row][ai].Equal(newV) {
				out.Tuples[row] = out.Tuples[row].With(ai, newV)
				changed++
			}
		}
	}
	return out, changed
}

// AccuracyByAttr estimates per-attribute accuracy from attribute-level
// feedback: correct / (correct + incorrect). Attributes without feedback are
// absent from the map.
func AccuracyByAttr(items []Item) map[string]float64 {
	pos, neg := map[string]int{}, map[string]int{}
	for _, it := range items {
		if it.Attr == "" {
			continue
		}
		if it.Correct {
			pos[it.Attr]++
		} else {
			neg[it.Attr]++
		}
	}
	out := map[string]float64{}
	for attr := range pos {
		out[attr] = float64(pos[attr]) / float64(pos[attr]+neg[attr])
	}
	for attr := range neg {
		if _, ok := out[attr]; !ok {
			out[attr] = 0
		}
	}
	return out
}

// AccuracyBySource estimates accuracy per (source, attribute) by joining
// feedback items to result rows via the key and reading the row's provenance
// column. This is what lets feedback localise blame to one source's match
// even when several sources populate the same target attribute.
func AccuracyBySource(items []Item, res *relation.Relation, provAttr string) map[string]map[string]float64 {
	pi := res.Schema.AttrIndex(provAttr)
	if pi < 0 {
		return nil
	}
	keys := IndexKeys(res)
	pos := map[string]map[string]int{}
	neg := map[string]map[string]int{}
	bump := func(m map[string]map[string]int, src, attr string) {
		if m[src] == nil {
			m[src] = map[string]int{}
		}
		m[src][attr]++
	}
	for _, it := range items {
		if it.Attr == "" {
			continue
		}
		ai := res.Schema.AttrIndex(it.Attr)
		for _, row := range keys.Rows(it) {
			if res.Tuples[row][pi].IsNull() {
				continue
			}
			// With a captured observation, only blame/credit rows actually
			// holding the judged value (duplicate keys otherwise smear
			// feedback across sources).
			if it.HasObserved && ai >= 0 && !res.Tuples[row][ai].Equal(it.Observed) {
				continue
			}
			// A "+"-joined provenance (base+enrichment) attributes blame to
			// the base source.
			base := res.Tuples[row][pi].String()
			if i := strings.IndexByte(base, '+'); i > 0 {
				base = base[:i]
			}
			if it.Correct {
				bump(pos, base, it.Attr)
			} else {
				bump(neg, base, it.Attr)
			}
		}
	}
	out := map[string]map[string]float64{}
	srcs := map[string]bool{}
	for s := range pos {
		srcs[s] = true
	}
	for s := range neg {
		srcs[s] = true
	}
	for s := range srcs {
		out[s] = map[string]float64{}
		attrs := map[string]bool{}
		for a := range pos[s] {
			attrs[a] = true
		}
		for a := range neg[s] {
			attrs[a] = true
		}
		for a := range attrs {
			p, n := pos[s][a], neg[s][a]
			out[s][a] = float64(p) / float64(p+n)
		}
	}
	return out
}

// RangeRule is a learned numeric plausibility interval for an attribute.
type RangeRule struct {
	// Attr is the constrained attribute.
	Attr string
	// Min and Max bound plausible values (inclusive).
	Min, Max float64
	// Support is the number of confirmed-correct examples behind the rule.
	Support int
}

// String renders the rule.
func (r RangeRule) String() string {
	return fmt.Sprintf("%s ∈ [%g, %g] (support %d)", r.Attr, r.Min, r.Max, r.Support)
}

// rangeRuleSupport is the fewest confirmations a plausibility rule is
// learned from.
const rangeRuleSupport = 3

// LearnRangeRules derives plausibility intervals per numeric attribute from
// feedback: the interval spans the values confirmed correct, and a bound is
// only emitted on a side where (a) at least rangeRuleSupport confirmations exist
// and (b) at least one value marked incorrect falls beyond it — i.e. the
// rule would actually have caught a known error. The unconstrained side is
// left open (±MaxFloat), so a rule learned from high outliers (the paper's
// master-bedroom-area error) never suppresses legitimately small values the
// sample happened to miss.
//
// Values are read from Item.Observed when captured, falling back to the
// current result otherwise — the first row the item annotates whose value is a
// number; learning from observations keeps rules stable as the result evolves.
func LearnRangeRules(items []Item, res *relation.Relation) []RangeRule {
	return learnRangeRules(items, res, rangeRuleSupport)
}

// learnRangeRules is LearnRangeRules from minSupport confirmations.
func learnRangeRules(items []Item, res *relation.Relation, minSupport int) []RangeRule {
	type span struct {
		lo, hi  float64
		support int
	}
	good := map[string]*span{}
	var badVals = map[string][]float64{}

	var keys *Keys // indexed for the first item without an observation
	valueAt := func(it Item) (float64, bool) {
		if it.HasObserved {
			return it.Observed.AsFloat()
		}
		ai := res.Schema.AttrIndex(it.Attr)
		if ai < 0 {
			return 0, false
		}
		if keys == nil {
			keys = IndexKeys(res)
		}
		for _, row := range keys.Rows(it) {
			if f, ok := res.Tuples[row][ai].AsFloat(); ok {
				return f, true
			}
		}
		return 0, false
	}

	for _, it := range items {
		if it.Attr == "" {
			continue
		}
		f, ok := valueAt(it)
		if !ok {
			continue
		}
		if it.Correct {
			s := good[it.Attr]
			if s == nil {
				s = &span{lo: f, hi: f}
				good[it.Attr] = s
			}
			if f < s.lo {
				s.lo = f
			}
			if f > s.hi {
				s.hi = f
			}
			s.support++
		} else {
			badVals[it.Attr] = append(badVals[it.Attr], f)
		}
	}

	const open = math.MaxFloat64
	var out []RangeRule
	attrs := make([]string, 0, len(good))
	for a := range good {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		s := good[a]
		if s.support < minSupport {
			continue
		}
		caughtBelow, caughtAbove := false, false
		for _, b := range badVals[a] {
			if b < s.lo {
				caughtBelow = true
			}
			if b > s.hi {
				caughtAbove = true
			}
		}
		if !caughtBelow && !caughtAbove {
			continue
		}
		rule := RangeRule{Attr: a, Min: -open, Max: open, Support: s.support}
		if caughtBelow {
			rule.Min = s.lo
		}
		if caughtAbove {
			rule.Max = s.hi
		}
		out = append(out, rule)
	}
	return out
}

// ApplyRangeRules nulls cells falling outside learned plausibility ranges,
// returning the patched relation — res is not modified, and rows without a
// suppressed cell are shared with it — and the count of suppressed cells.
// Nulled cells become targets for repair and fusion instead of silently wrong
// values.
func ApplyRangeRules(res *relation.Relation, rules []RangeRule) (*relation.Relation, int) {
	out := res.Shallow()
	suppressed := 0
	for _, r := range rules {
		ai := out.Schema.AttrIndex(r.Attr)
		if ai < 0 {
			continue
		}
		for row := range out.Tuples {
			f, ok := out.Tuples[row][ai].AsFloat()
			if !ok {
				continue
			}
			if f < r.Min || f > r.Max {
				out.Tuples[row] = out.Tuples[row].With(ai, relation.Null())
				suppressed++
			}
		}
	}
	return out, suppressed
}

// ReviseMatchScores implements the paper's mapping-evaluation step: matches
// whose target attribute has a low estimated accuracy for their source get
// their score multiplied by that accuracy. Matches without evidence are
// unchanged.
func ReviseMatchScores(matches []match.Match, accBySource map[string]map[string]float64) []match.Match {
	out := make([]match.Match, len(matches))
	copy(out, matches)
	for i, m := range out {
		if byAttr, ok := accBySource[m.SourceRel]; ok {
			if acc, ok := byAttr[m.TargetAttr]; ok {
				out[i].Score = m.Score * acc
				out[i].Method = m.Method + "+feedback"
			}
		}
	}
	return out
}

// TrustFromAccuracy summarises per-source accuracy into a scalar trust
// weight per source (mean across attributes), for trust-weighted fusion.
// Accuracies are summed in attribute-name order: float addition does not
// associate, and a sum in map order would let a source's trust — and with it
// a fusion tie — differ in the last bit from one call to the next.
func TrustFromAccuracy(accBySource map[string]map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for src, byAttr := range accBySource {
		if len(byAttr) == 0 {
			continue
		}
		sum := 0.0
		for _, attr := range slices.Sorted(maps.Keys(byAttr)) {
			sum += byAttr[attr]
		}
		out[src] = sum / float64(len(byAttr))
	}
	return out
}

package feedback

// The reference implementations of what now goes through Keys: Apply,
// AccuracyBySource and LearnRangeRules as they were, kept verbatim as the
// oracles of TestKeysDifferential. Each finds an item's rows by normalising the
// key of every row — LearnRangeRules once per row for every item without an
// observation.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vada/internal/relation"
)

// rowKey computes the key of a result row, ok=false when street/postcode
// are unavailable.
func rowKey(res *relation.Relation, row int) (Key, bool) {
	si := res.Schema.AttrIndex("street")
	pi := res.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 {
		return Key{}, false
	}
	s, p := res.Tuples[row][si], res.Tuples[row][pi]
	if s.IsNull() && p.IsNull() {
		return Key{}, false
	}
	return KeyOf(s.String(), p.String()), true
}

func referenceApply(res *relation.Relation, items []Item) (*relation.Relation, int) {
	byKey := map[Key][]Item{}
	for _, it := range items {
		if it.Attr == "" || it.Correct {
			continue
		}
		byKey[KeyOf(it.Street, it.Postcode)] = append(byKey[KeyOf(it.Street, it.Postcode)], it)
	}
	out := res.Shallow()
	changed := 0
	for row := range out.Tuples {
		key, ok := rowKey(out, row)
		if !ok {
			continue
		}
		for _, it := range byKey[key] {
			ai := out.Schema.AttrIndex(it.Attr)
			if ai < 0 {
				continue
			}
			var newV relation.Value
			if it.HasCorrection {
				newV = it.Corrected
			} else {
				newV = relation.Null()
			}
			if !out.Tuples[row][ai].Equal(newV) {
				out.Tuples[row] = out.Tuples[row].With(ai, newV)
				changed++
			}
		}
	}
	return out, changed
}

func referenceAccuracyBySource(items []Item, res *relation.Relation, provAttr string) map[string]map[string]float64 {
	pi := res.Schema.AttrIndex(provAttr)
	if pi < 0 {
		return nil
	}
	type rowRef struct {
		src string
		row int
	}
	srcOf := map[Key][]rowRef{}
	for row := range res.Tuples {
		key, ok := rowKey(res, row)
		if !ok || res.Tuples[row][pi].IsNull() {
			continue
		}
		srcOf[key] = append(srcOf[key], rowRef{src: res.Tuples[row][pi].String(), row: row})
	}
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
		for _, ref := range srcOf[KeyOf(it.Street, it.Postcode)] {
			// With a captured observation, only blame/credit rows actually
			// holding the judged value (duplicate keys otherwise smear
			// feedback across sources).
			if it.HasObserved && ai >= 0 && !res.Tuples[ref.row][ai].Equal(it.Observed) {
				continue
			}
			// A "+"-joined provenance (base+enrichment) attributes blame to
			// the base source.
			base := ref.src
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

func referenceLearnRangeRules(items []Item, res *relation.Relation, minSupport int) []RangeRule {
	type span struct {
		lo, hi  float64
		support int
	}
	good := map[string]*span{}
	var badVals = map[string][]float64{}

	valueAt := func(it Item) (float64, bool) {
		if it.HasObserved {
			return it.Observed.AsFloat()
		}
		ai := res.Schema.AttrIndex(it.Attr)
		if ai < 0 {
			return 0, false
		}
		for row := range res.Tuples {
			key, ok := rowKey(res, row)
			if !ok || key != KeyOf(it.Street, it.Postcode) {
				continue
			}
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

// randomResult is a small result relation whose rows share keys up to case and
// spacing, some with a null street or postcode, with numeric, textual and null
// bedroom counts and a provenance column.
func randomResult(rng *rand.Rand) *relation.Relation {
	r := relation.New(relation.NewSchema("target", "street", "postcode", "bedrooms", "_src"))
	streets := []string{"1 High St", "1 HIGH ST ", "2 Low Rd", " 2 low rd", "3 Mid Ln"}
	postcodes := []string{"M1 1AA", "m11aa", "M1 1AB", "M2 2BB"}
	srcs := []string{"rightmove", "onthemarket", "rightmove+deprivation"}
	for n := rng.Intn(12); n > 0; n-- {
		street, postcode := relation.String(streets[rng.Intn(len(streets))]), relation.String(postcodes[rng.Intn(len(postcodes))])
		switch rng.Intn(6) {
		case 0:
			street = relation.Null()
		case 1:
			postcode = relation.Null()
		}
		var beds relation.Value
		switch rng.Intn(4) {
		case 0:
			beds = relation.Null()
		case 1:
			beds = relation.String("many")
		default:
			beds = relation.Int(int64(rng.Intn(20)))
		}
		src := relation.String(srcs[rng.Intn(len(srcs))])
		if rng.Intn(8) == 0 {
			src = relation.Null()
		}
		r.Tuples = append(r.Tuples, relation.Tuple{street, postcode, beds, src})
	}
	return r
}

// randomItems annotates keys of res, and keys no row has, with and without an
// observation and a correction.
func randomItems(rng *rand.Rand, res *relation.Relation) []Item {
	var items []Item
	for n := rng.Intn(16); n > 0; n-- {
		it := Item{Street: fmt.Sprintf("%d High St", rng.Intn(3)), Postcode: "M1 1AA", Attr: "bedrooms", Correct: rng.Intn(2) == 0}
		if len(res.Tuples) > 0 && rng.Intn(4) > 0 {
			row := res.Tuples[rng.Intn(len(res.Tuples))]
			it.Street, it.Postcode = row[0].String(), row[1].String()
		}
		switch rng.Intn(5) {
		case 0:
			it.Attr = ""
		case 1:
			it.Attr = "street"
		}
		if rng.Intn(2) == 0 {
			it.Observed, it.HasObserved = relation.Int(int64(rng.Intn(20))), true
		}
		if rng.Intn(2) == 0 {
			it.Corrected, it.HasCorrection = relation.Int(int64(rng.Intn(6))), true
		}
		items = append(items, it)
	}
	return items
}

// TestKeysDifferential holds the three readers of an item's rows to the loops
// they replaced, over results with keys that collide up to case and spacing,
// rows without a street or a postcode, and items with and without an
// observation.
func TestKeysDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unobserved := 0
	for i := 0; i < 3000; i++ {
		res := randomResult(rng)
		items := randomItems(rng, res)
		for _, it := range items {
			if !it.HasObserved && it.Attr != "" {
				unobserved++
			}
		}
		label := fmt.Sprintf("case %d: %v over\n%v", i, items, res)

		want, wantN := referenceApply(res, items)
		got, gotN := Apply(res, IndexKeys(res), items)
		if !got.Identical(want) || gotN != wantN {
			t.Fatalf("%s: Apply changed %d cells to\n%v\nthe reference %d to\n%v", label, gotN, got, wantN, want)
		}
		if got, want := AccuracyBySource(items, res, "_src"), referenceAccuracyBySource(items, res, "_src"); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AccuracyBySource %v, the reference %v", label, got, want)
		}
		for _, support := range []int{1, 2} {
			got, want := learnRangeRules(items, res, support), referenceLearnRangeRules(items, res, support)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: support %d: LearnRangeRules %v, the reference %v", label, support, got, want)
			}
		}
	}
	if unobserved < 1000 {
		t.Fatalf("only %d items without an observation: the test reads too few values from the result", unobserved)
	}
}

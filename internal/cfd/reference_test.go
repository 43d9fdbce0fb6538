package cfd

// The reference implementation of reference-based repair: the per-call code
// RepairWithReference ran before PrepareReference existed, kept verbatim as
// the oracle TestRepairDifferential and the fuzz targets hold the prepared
// path to. It rebuilds the normalised key map and every CFD's lookup table
// from the reference on each call, scans every reference key for every
// unknown-key row, and fills a full two-row Levenshtein table per comparison.
// Only the names changed, and two things: the normaliser is no longer an
// option, and an LHS key quotes each value instead of ending it with a
// separator byte a value may hold, which let two different LHS tuples share a
// key. constantRepair is shared with the production code, which did not touch
// it. ReferenceRepair is exported to differential_test.go, which builds its
// result relations with packages that import this one.

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"vada/internal/relation"
)

// ReferenceRepair is RepairWithReference as it was. Test-only.
func ReferenceRepair(res, ref *relation.Relation, cfds []CFD, b RepairBounds) (*relation.Relation, []RepairAction) {
	out := res.Clone()
	var log []RepairAction
	norm := func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

	// Fuzzy key repair first: snap typo'd keys onto reference keys.
	if b.MaxEditDistance > 0 {
		log = append(log, refFuzzyKeyRepair(out, ref, b, norm)...)
	}

	// CFD-driven value repair.
	for _, c := range cfds {
		if c.IsConstant() {
			log = append(log, constantRepair(out, c)...)
			continue
		}
		log = append(log, refVariableRepair(out, ref, c, norm)...)
	}
	return out, log
}

// refFuzzyKeyRepair snaps near-miss key values (typos) onto reference keys.
func refFuzzyKeyRepair(out, ref *relation.Relation, b RepairBounds, norm func(string) string) []RepairAction {
	ki := out.Schema.AttrIndex(b.KeyAttr)
	rki := ref.Schema.AttrIndex(b.RefKeyAttr)
	if ki < 0 || rki < 0 {
		return nil
	}
	refKeys := map[string]relation.Value{}
	var refList []string
	for _, t := range ref.Tuples {
		if t[rki].IsNull() {
			continue
		}
		n := norm(t[rki].String())
		if _, ok := refKeys[n]; !ok {
			refKeys[n] = t[rki]
			refList = append(refList, n)
		}
	}
	var log []RepairAction
	for rowIdx, t := range out.Tuples {
		if t[ki].IsNull() {
			continue
		}
		n := norm(t[ki].String())
		if canonical, ok := refKeys[n]; ok {
			// Known key: only canonicalise the spelling if it differs.
			if t[ki].String() != canonical.String() {
				log = append(log, RepairAction{Row: rowIdx, Attr: b.KeyAttr,
					Old: t[ki], New: canonical, Reason: "reference spelling"})
				t[ki] = canonical
			}
			continue
		}
		// Unknown key: look for a unique reference key within the edit
		// bound.
		bestKey, bestD, ties := "", b.MaxEditDistance+1, 0
		for _, rk := range refList {
			d := refBoundedEditDistance(n, rk, b.MaxEditDistance)
			if d < 0 {
				continue
			}
			if d < bestD {
				bestKey, bestD, ties = rk, d, 1
			} else if d == bestD {
				ties++
			}
		}
		if bestD <= b.MaxEditDistance && ties == 1 {
			canonical := refKeys[bestKey]
			log = append(log, RepairAction{Row: rowIdx, Attr: b.KeyAttr,
				Old: t[ki], New: canonical,
				Reason: fmt.Sprintf("fuzzy reference match (distance %d)", bestD)})
			t[ki] = canonical
		}
	}
	return log
}

// refBoundedEditDistance returns Levenshtein distance if ≤ bound, else -1, with
// an early length check for speed.
func refBoundedEditDistance(a, b string, bound int) int {
	la, lb := len(a), len(b)
	if la-lb > bound || lb-la > bound {
		return -1
	}
	// Small strings: plain DP is fine at this scale.
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if c := cur[j-1] + 1; c < m {
				m = c
			}
			if c := prev[j-1] + cost; c < m {
				m = c
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return -1
		}
		prev, cur = cur, prev
	}
	if prev[lb] > bound {
		return -1
	}
	return prev[lb]
}

// refVariableRepair fills/corrects RHS values from reference groups that are
// unique on the CFD's LHS.
func refVariableRepair(out, ref *relation.Relation, c CFD, norm func(string) string) []RepairAction {
	li := make([]int, len(c.LHS))
	rli := make([]int, len(c.LHS))
	for i, a := range c.LHS {
		li[i] = out.Schema.AttrIndex(a)
		rli[i] = ref.Schema.AttrIndex(a)
		if li[i] < 0 || rli[i] < 0 {
			return nil
		}
	}
	ri := out.Schema.AttrIndex(c.RHS)
	rri := ref.Schema.AttrIndex(c.RHS)
	if ri < 0 || rri < 0 {
		return nil
	}

	// Reference lookup: LHS key -> unique RHS value (nil if ambiguous).
	lookup := map[string]relation.Value{}
	ambiguous := map[string]bool{}
	for _, t := range ref.Tuples {
		var kb strings.Builder
		skip := false
		for _, idx := range rli {
			if t[idx].IsNull() {
				skip = true
				break
			}
			kb.WriteString(strconv.Quote(norm(t[idx].String())))
		}
		if skip || t[rri].IsNull() {
			continue
		}
		k := kb.String()
		if prev, ok := lookup[k]; ok {
			if !prev.Equal(t[rri]) {
				ambiguous[k] = true
			}
			continue
		}
		lookup[k] = t[rri]
	}

	var log []RepairAction
	for rowIdx, t := range out.Tuples {
		var kb strings.Builder
		skip := false
		for _, idx := range li {
			if t[idx].IsNull() {
				skip = true
				break
			}
			kb.WriteString(strconv.Quote(norm(t[idx].String())))
		}
		if skip {
			continue
		}
		k := kb.String()
		want, ok := lookup[k]
		if !ok || ambiguous[k] {
			continue
		}
		if t[ri].IsNull() {
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want,
				Reason: "filled from reference via " + fdKey(c.LHS, c.RHS)})
			t[ri] = want
			continue
		}
		// Correct format-noisy values: same after normalisation but
		// different spelling → canonicalise; different after normalisation →
		// reference wins (it is clean by assumption).
		if t[ri].String() != want.String() {
			reason := "corrected from reference via " + fdKey(c.LHS, c.RHS)
			if norm(t[ri].String()) == norm(want.String()) {
				reason = "canonicalised via " + fdKey(c.LHS, c.RHS)
			}
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want, Reason: reason})
			t[ri] = want
		}
	}
	return log
}

// The reference implementations of mining and violation detection: Mine,
// partitionStats, Violations and ConsistencyRate as they were before relations
// were encoded once as column codes, kept verbatim (names apart, and Mine's
// dead subsetsDone) as the oracles of TestMineDifferential, FuzzMineDifferential
// and TestViolationsDifferential.

// ReferenceMine is Mine as it was: it partitions the relation afresh, by
// strings built per row, for every (LHS, RHS) pair. Test-only.
func ReferenceMine(rel *relation.Relation, b mineBounds) []CFD {
	attrs := rel.Schema.AttrNames()
	var out []CFD
	exact := map[string]bool{} // "A" -> some X→A with conf 1 already found at lower level

	var lhsSets [][]string
	var build func(start int, cur []string)
	build = func(start int, cur []string) {
		if len(cur) > 0 && len(cur) <= b.maxLHS {
			lhsSets = append(lhsSets, append([]string(nil), cur...))
		}
		if len(cur) == b.maxLHS {
			return
		}
		for i := start; i < len(attrs); i++ {
			build(i+1, append(cur, attrs[i]))
		}
	}
	build(0, nil)
	// Levelwise order: smaller LHS first.
	sort.SliceStable(lhsSets, func(i, j int) bool { return len(lhsSets[i]) < len(lhsSets[j]) })

	var constants []CFD
	for _, lhs := range lhsSets {
		for _, rhs := range attrs {
			if slices.Contains(lhs, rhs) {
				continue
			}
			// Prune: an exact smaller FD for rhs whose LHS ⊆ lhs implies this.
			if prunedBy(exact, lhs, rhs) {
				continue
			}
			stats := refPartitionStats(rel, lhs, rhs)
			if stats.usable == 0 {
				continue
			}
			support := float64(stats.usable) / float64(rel.Cardinality())
			confidence := float64(stats.consistent) / float64(stats.usable)
			if support >= b.minSupport && confidence >= b.minConfidence {
				pattern := map[string]PatternCell{rhs: {Any: true}}
				for _, a := range lhs {
					pattern[a] = PatternCell{Any: true}
				}
				out = append(out, CFD{
					LHS: append([]string(nil), lhs...), RHS: rhs,
					Pattern: pattern, Support: support, Confidence: confidence,
				})
				if confidence == 1 {
					exact[fdKey(lhs, rhs)] = true
				}
			}
			// Constant CFDs from pure groups.
			for _, g := range stats.pureGroups {
				if g.count < b.minConstantSupport {
					continue
				}
				pattern := map[string]PatternCell{rhs: {Value: g.rhsValue}}
				for i, a := range lhs {
					pattern[a] = PatternCell{Value: g.lhsValues[i]}
				}
				constants = append(constants, CFD{
					LHS: append([]string(nil), lhs...), RHS: rhs,
					Pattern:    pattern,
					Support:    float64(g.count) / float64(rel.Cardinality()),
					Confidence: 1,
				})
			}
		}
	}

	sort.SliceStable(constants, func(i, j int) bool {
		if constants[i].Support != constants[j].Support {
			return constants[i].Support > constants[j].Support
		}
		return constants[i].Key() < constants[j].Key()
	})
	if len(constants) > b.maxConstantCFDs {
		constants = constants[:b.maxConstantCFDs]
	}
	out = append(out, constants...)
	return out
}

type refPureGroup struct {
	lhsValues []relation.Value
	rhsValue  relation.Value
	count     int
}

type refStats struct {
	usable     int // tuples with no nulls in LHS∪{RHS}
	consistent int // tuples in their group's majority RHS value
	pureGroups []refPureGroup
}

func refPartitionStats(rel *relation.Relation, lhs []string, rhs string) refStats {
	li := make([]int, len(lhs))
	for i, a := range lhs {
		li[i] = rel.Schema.AttrIndex(a)
	}
	ri := rel.Schema.AttrIndex(rhs)

	type group struct {
		lhsValues []relation.Value
		counts    map[string]int
		rhsSample map[string]relation.Value
		total     int
	}
	groups := map[string]*group{}
	var order []string
	st := refStats{}
	for _, t := range rel.Tuples {
		skip := t[ri].IsNull()
		var kb strings.Builder
		vals := make([]relation.Value, len(li))
		for i, idx := range li {
			if t[idx].IsNull() {
				skip = true
				break
			}
			vals[i] = t[idx]
			kb.WriteString(t[idx].Key())
			kb.WriteByte('\x1f')
		}
		if skip {
			continue
		}
		st.usable++
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &group{lhsValues: vals, counts: map[string]int{}, rhsSample: map[string]relation.Value{}}
			groups[k] = g
			order = append(order, k)
		}
		rk := t[ri].Key()
		g.counts[rk]++
		g.rhsSample[rk] = t[ri]
		g.total++
	}
	for _, k := range order {
		g := groups[k]
		best, bestKey := 0, ""
		for rk, c := range g.counts {
			if c > best || (c == best && rk < bestKey) {
				best, bestKey = c, rk
			}
		}
		st.consistent += best
		if len(g.counts) == 1 {
			st.pureGroups = append(st.pureGroups, refPureGroup{
				lhsValues: g.lhsValues, rhsValue: g.rhsSample[bestKey], count: g.total,
			})
		}
	}
	return st
}

// ReferenceViolations is Violations as it was: one CFD at a time, grouping
// by strings built per row. Test-only.
func ReferenceViolations(rel *relation.Relation, c CFD) []Violation {
	li := make([]int, len(c.LHS))
	for i, a := range c.LHS {
		li[i] = rel.Schema.AttrIndex(a)
		if li[i] < 0 {
			return nil
		}
	}
	ri := rel.Schema.AttrIndex(c.RHS)
	if ri < 0 {
		return nil
	}

	matches := func(t relation.Tuple) bool {
		for i, a := range c.LHS {
			cell := c.Pattern[a]
			if t[li[i]].IsNull() {
				return false
			}
			if !cell.Any && !cell.Value.Equal(t[li[i]]) {
				return false
			}
		}
		return !t[ri].IsNull()
	}

	var out []Violation
	if c.IsConstant() {
		for rowIdx, t := range rel.Tuples {
			if !matches(t) {
				continue
			}
			if !c.Pattern[c.RHS].Value.Equal(t[ri]) {
				out = append(out, Violation{CFD: c, Rows: []int{rowIdx}, Attr: c.RHS})
			}
		}
		return out
	}

	// Variable CFD: group matching tuples by LHS; groups with >1 distinct
	// RHS value violate.
	type group struct {
		rows []int
		rhs  map[string]bool
	}
	groups := map[string]*group{}
	var order []string
	for rowIdx, t := range rel.Tuples {
		if !matches(t) {
			continue
		}
		var kb strings.Builder
		for _, idx := range li {
			kb.WriteString(t[idx].Key())
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		g, ok := groups[k]
		if !ok {
			g = &group{rhs: map[string]bool{}}
			groups[k] = g
			order = append(order, k)
		}
		g.rows = append(g.rows, rowIdx)
		g.rhs[t[ri].Key()] = true
	}
	for _, k := range order {
		g := groups[k]
		if len(g.rhs) > 1 {
			out = append(out, Violation{CFD: c, Rows: append([]int(nil), g.rows...), Attr: c.RHS})
		}
	}
	return out
}

// ReferenceConsistencyRate is ConsistencyRate as it was. Test-only.
func ReferenceConsistencyRate(rel *relation.Relation, cfds []CFD) float64 {
	if rel.Cardinality() == 0 || len(cfds) == 0 {
		return 1
	}
	bad := map[int]bool{}
	for _, c := range cfds {
		for _, v := range ReferenceViolations(rel, c) {
			for _, r := range v.Rows {
				bad[r] = true
			}
		}
	}
	return 1 - float64(len(bad))/float64(rel.Cardinality())
}

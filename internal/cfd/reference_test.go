package cfd

// The reference implementation of reference-based repair: the per-call code
// RepairWithReference ran before PrepareReference existed, kept verbatim as
// the oracle TestRepairDifferential and the fuzz targets hold the prepared
// path to. It rebuilds the normalised key map and every CFD's lookup table
// from the reference on each call, scans every reference key for every
// unknown-key row, and fills a full two-row Levenshtein table per comparison.
// Only the names changed; constantRepair is shared with the production code,
// which did not touch it. ReferenceRepair is exported to differential_test.go,
// which builds its result relations with packages that import this one.

import (
	"fmt"
	"strings"

	"vada/internal/relation"
)

// ReferenceRepair is RepairWithReference as it was. Test-only.
func ReferenceRepair(res, ref *relation.Relation, cfds []CFD, opts RepairOptions) (*relation.Relation, []RepairAction) {
	out := res.Clone()
	var log []RepairAction
	norm := opts.Normalize
	if norm == nil {
		norm = func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
	}

	// Fuzzy key repair first: snap typo'd keys onto reference keys.
	if opts.MaxEditDistance > 0 {
		log = append(log, refFuzzyKeyRepair(out, ref, opts, norm)...)
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
func refFuzzyKeyRepair(out, ref *relation.Relation, opts RepairOptions, norm func(string) string) []RepairAction {
	ki := out.Schema.AttrIndex(opts.KeyAttr)
	rki := ref.Schema.AttrIndex(opts.RefKeyAttr)
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
				log = append(log, RepairAction{Row: rowIdx, Attr: opts.KeyAttr,
					Old: t[ki], New: canonical, Reason: "reference spelling"})
				t[ki] = canonical
			}
			continue
		}
		// Unknown key: look for a unique reference key within the edit
		// bound.
		bestKey, bestD, ties := "", opts.MaxEditDistance+1, 0
		for _, rk := range refList {
			d := refBoundedEditDistance(n, rk, opts.MaxEditDistance)
			if d < 0 {
				continue
			}
			if d < bestD {
				bestKey, bestD, ties = rk, d, 1
			} else if d == bestD {
				ties++
			}
		}
		if bestD <= opts.MaxEditDistance && ties == 1 {
			canonical := refKeys[bestKey]
			log = append(log, RepairAction{Row: rowIdx, Attr: opts.KeyAttr,
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
			kb.WriteString(norm(t[idx].String()))
			kb.WriteByte('\x1f')
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
			kb.WriteString(norm(t[idx].String()))
			kb.WriteByte('\x1f')
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

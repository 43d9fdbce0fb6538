package cfd

import (
	"fmt"
	"strings"

	"vada/internal/relation"
)

// RepairAction records one change made by the repair transducer, feeding the
// browsable trace of §3.
type RepairAction struct {
	// Row is the repaired tuple index.
	Row int
	// Attr is the repaired attribute.
	Attr string
	// Old and New are the values before and after.
	Old, New relation.Value
	// Reason explains the evidence used.
	Reason string
}

// String renders the action.
func (a RepairAction) String() string {
	return fmt.Sprintf("row %d %s: %v → %v (%s)", a.Row, a.Attr, a.Old, a.New, a.Reason)
}

// RepairOptions configures reference-based repair.
type RepairOptions struct {
	// KeyAttr is the result attribute used to look tuples up in the
	// reference data (typically "street").
	KeyAttr string
	// RefKeyAttr is the corresponding reference attribute.
	RefKeyAttr string
	// MaxEditDistance bounds fuzzy key repair (0 disables it).
	MaxEditDistance int
	// Normalize canonicalises values before comparison (case, spacing).
	// When nil, a case-insensitive trimmed comparison is used.
	Normalize func(string) string
}

// DefaultRepairOptions repairs via street against reference streets with
// edit distance up to 2.
func DefaultRepairOptions() RepairOptions {
	return RepairOptions{KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 2}
}

// Reference is clean reference data prepared for repair: everything repair
// needs that is a property of the reference, the CFDs and the options alone,
// built once however many result relations are repaired against it. It
// memoises fuzzy key lookups across Repair calls, so it is not safe for
// concurrent use; it is meant to live for one pass over the result relations.
type Reference struct {
	opts RepairOptions
	norm func(string) string
	cfds []CFD
	// tables[i] serves cfds[i]; nil for constant CFDs and for variable CFDs
	// naming an attribute the reference lacks.
	tables []*refTable

	// keys maps each normalised reference key to its first spelling; nil
	// when fuzzy key repair is off or the reference lacks the key attribute.
	keys map[string]relation.Value
	// keysByLen buckets the normalised keys by byte length: an edit
	// distance within the bound needs lengths within the bound.
	keysByLen map[int][]string
	// fuzzy memoises closest per unknown normalised key: the answer depends
	// on the key and the reference only, and result relations share keys.
	fuzzy map[string]fuzzyHit
	// row is boundedEditDistance's scratch, sized for the longest key.
	row []int
}

// refTable is one variable CFD's view of the reference.
type refTable struct {
	// lookup maps a normalised LHS key to the first RHS value seen for it;
	// ambiguous marks keys the reference gives more than one RHS value.
	lookup    map[string]relation.Value
	ambiguous map[string]bool
	// The three reasons an action of this CFD can carry.
	filled, corrected, canonicalised string
}

// fuzzyHit is the unique reference key within the edit bound of an unknown
// key, if there is one.
type fuzzyHit struct {
	canonical relation.Value
	reason    string
	ok        bool
}

// PrepareReference indexes ref for repairing result relations with cfds
// under opts: the normalised key map and its length buckets for fuzzy key
// repair, and per variable CFD the LHS → RHS lookup with its ambiguous keys.
// Repair then works as follows: for each variable CFD X → A whose attributes
// all map into both relations, result tuples matching a reference group on X
// get A corrected/filled from the (unique) reference value; additionally the
// key attribute itself is repaired fuzzily (typo'd streets snapped to the
// closest reference street sharing the tuple's other evidence).
func PrepareReference(ref *relation.Relation, cfds []CFD, opts RepairOptions) *Reference {
	r := &Reference{opts: opts, norm: opts.Normalize, cfds: cfds, tables: make([]*refTable, len(cfds))}
	if r.norm == nil {
		r.norm = func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
	}
	if rki := ref.Schema.AttrIndex(opts.RefKeyAttr); opts.MaxEditDistance > 0 && rki >= 0 {
		r.keys = map[string]relation.Value{}
		r.keysByLen = map[int][]string{}
		r.fuzzy = map[string]fuzzyHit{}
		longest := 0
		for _, t := range ref.Tuples {
			if t[rki].IsNull() {
				continue
			}
			n := r.norm(t[rki].String())
			if _, ok := r.keys[n]; !ok {
				r.keys[n] = t[rki]
				r.keysByLen[len(n)] = append(r.keysByLen[len(n)], n)
				if len(n) > longest {
					longest = len(n)
				}
			}
		}
		r.row = make([]int, longest+1)
	}
	for i, c := range cfds {
		if !c.IsConstant() {
			r.tables[i] = r.prepareTable(ref, c)
		}
	}
	return r
}

// prepareTable builds c's reference lookup: LHS key -> unique RHS value.
func (r *Reference) prepareTable(ref *relation.Relation, c CFD) *refTable {
	rli, ok := attrIndexes(ref, c.LHS)
	rri := ref.Schema.AttrIndex(c.RHS)
	if !ok || rri < 0 {
		return nil
	}
	via := fdKey(c.LHS, c.RHS)
	tb := &refTable{
		lookup:        map[string]relation.Value{},
		ambiguous:     map[string]bool{},
		filled:        "filled from reference via " + via,
		corrected:     "corrected from reference via " + via,
		canonicalised: "canonicalised via " + via,
	}
	for _, t := range ref.Tuples {
		k, ok := r.lhsKey(t, rli)
		if !ok || t[rri].IsNull() {
			continue
		}
		if prev, ok := tb.lookup[k]; ok {
			if !prev.Equal(t[rri]) {
				tb.ambiguous[k] = true
			}
			continue
		}
		tb.lookup[k] = t[rri]
	}
	return tb
}

// attrIndexes resolves attrs in rel's schema; false when one is missing.
func attrIndexes(rel *relation.Relation, attrs []string) ([]int, bool) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		idx[i] = rel.Schema.AttrIndex(a)
		if idx[i] < 0 {
			return nil, false
		}
	}
	return idx, true
}

// lhsKey joins t's normalised values at idx; false when one is null.
func (r *Reference) lhsKey(t relation.Tuple, idx []int) (string, bool) {
	var kb strings.Builder
	for _, i := range idx {
		if t[i].IsNull() {
			return "", false
		}
		kb.WriteString(r.norm(t[i].String()))
		kb.WriteByte('\x1f')
	}
	return kb.String(), true
}

// Repair repairs one result relation against the prepared reference. The
// input relation is not modified; the repaired relation and the action log
// are returned. A row no repair touches is res's own row, shared: the steps
// below replace a row of out by a copy when they rewrite a cell in it.
func (r *Reference) Repair(res *relation.Relation) (*relation.Relation, []RepairAction) {
	out := res.Shallow()
	// Fuzzy key repair first: snap typo'd keys onto reference keys.
	log := r.fuzzyKeyRepair(out)
	// CFD-driven value repair.
	for i, c := range r.cfds {
		if c.IsConstant() {
			log = append(log, constantRepair(out, c)...)
			continue
		}
		log = append(log, r.variableRepair(out, c, r.tables[i])...)
	}
	return out, log
}

// fuzzyKeyRepair snaps near-miss key values (typos) onto reference keys.
func (r *Reference) fuzzyKeyRepair(out *relation.Relation) []RepairAction {
	ki := out.Schema.AttrIndex(r.opts.KeyAttr)
	if ki < 0 || r.keys == nil {
		return nil
	}
	var log []RepairAction
	for rowIdx, t := range out.Tuples {
		if t[ki].IsNull() {
			continue
		}
		n := r.norm(t[ki].String())
		if canonical, ok := r.keys[n]; ok {
			// Known key: only canonicalise the spelling if it differs.
			if t[ki].String() != canonical.String() {
				log = append(log, RepairAction{Row: rowIdx, Attr: r.opts.KeyAttr,
					Old: t[ki], New: canonical, Reason: "reference spelling"})
				out.Tuples[rowIdx] = t.With(ki, canonical)
			}
			continue
		}
		if hit := r.closest(n); hit.ok {
			log = append(log, RepairAction{Row: rowIdx, Attr: r.opts.KeyAttr,
				Old: t[ki], New: hit.canonical, Reason: hit.reason})
			out.Tuples[rowIdx] = t.With(ki, hit.canonical)
		}
	}
	return log
}

// closest looks an unknown key up among the reference keys: a hit is the one
// key at the smallest edit distance within the bound, a tie is a miss.
func (r *Reference) closest(n string) fuzzyHit {
	if hit, ok := r.fuzzy[n]; ok {
		return hit
	}
	bound := r.opts.MaxEditDistance
	bestKey, bestD, ties := "", bound+1, 0
	for l := len(n) - bound; l <= len(n)+bound; l++ {
		for _, rk := range r.keysByLen[l] {
			d := boundedEditDistance(n, rk, bound, r.row)
			if d < 0 {
				continue
			}
			if d < bestD {
				bestKey, bestD, ties = rk, d, 1
			} else if d == bestD {
				ties++
			}
		}
	}
	var hit fuzzyHit
	if bestD <= bound && ties == 1 {
		hit = fuzzyHit{canonical: r.keys[bestKey], ok: true,
			reason: fmt.Sprintf("fuzzy reference match (distance %d)", bestD)}
	}
	r.fuzzy[n] = hit
	return hit
}

// boundedEditDistance returns the Levenshtein distance of a and b (over
// bytes) if it is ≤ bound, else -1. Only the band of cells within bound of
// the diagonal is filled — a cheaper path cannot leave it — in the one row
// the caller lends, which must hold len(b)+1 cells.
func boundedEditDistance(a, b string, bound int, row []int) int {
	la, lb := len(a), len(b)
	if la-lb > bound || lb-la > bound {
		return -1
	}
	over := bound + 1 // stands for every distance past the bound
	row = row[:lb+1]
	for j := range row {
		row[j] = min(j, over)
	}
	for i := 1; i <= la; i++ {
		lo, hi := max(i-bound, 1), min(i+bound, lb)
		// The cell left of the band: column 0 while the band touches it,
		// outside the band after. row[hi] is outside row i-1's band and
		// still holds over from the first row.
		diag, left := row[lo-1], over
		if lo == 1 {
			left = min(i, over)
		}
		row[lo-1] = left
		rowMin := left
		for j := lo; j <= hi; j++ {
			up := row[j]
			m := min(up+1, left+1, over)
			if a[i-1] == b[j-1] {
				m = min(m, diag)
			} else {
				m = min(m, diag+1)
			}
			row[j], diag, left = m, up, m
			rowMin = min(rowMin, m)
		}
		if rowMin > bound {
			return -1
		}
	}
	if row[lb] > bound {
		return -1
	}
	return row[lb]
}

// constantRepair enforces constant CFDs directly.
func constantRepair(out *relation.Relation, c CFD) []RepairAction {
	li := make([]int, len(c.LHS))
	for i, a := range c.LHS {
		li[i] = out.Schema.AttrIndex(a)
		if li[i] < 0 {
			return nil
		}
	}
	ri := out.Schema.AttrIndex(c.RHS)
	if ri < 0 {
		return nil
	}
	var log []RepairAction
	for rowIdx, t := range out.Tuples {
		ok := true
		for i, a := range c.LHS {
			if t[li[i]].IsNull() || !c.Pattern[a].Value.Equal(t[li[i]]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		want := c.Pattern[c.RHS].Value
		if !t[ri].Equal(want) {
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want,
				Reason: "constant CFD " + c.Key()})
			out.Tuples[rowIdx] = t.With(ri, want)
		}
	}
	return log
}

// variableRepair fills/corrects RHS values from reference groups that are
// unique on the CFD's LHS.
func (r *Reference) variableRepair(out *relation.Relation, c CFD, tb *refTable) []RepairAction {
	if tb == nil {
		return nil
	}
	li, ok := attrIndexes(out, c.LHS)
	ri := out.Schema.AttrIndex(c.RHS)
	if !ok || ri < 0 {
		return nil
	}
	var log []RepairAction
	for rowIdx, t := range out.Tuples {
		k, ok := r.lhsKey(t, li)
		if !ok {
			continue
		}
		want, ok := tb.lookup[k]
		if !ok || tb.ambiguous[k] {
			continue
		}
		if t[ri].IsNull() {
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want, Reason: tb.filled})
			out.Tuples[rowIdx] = t.With(ri, want)
			continue
		}
		// Correct format-noisy values: same after normalisation but
		// different spelling → canonicalise; different after normalisation →
		// reference wins (it is clean by assumption).
		if t[ri].String() != want.String() {
			reason := tb.corrected
			if r.norm(t[ri].String()) == r.norm(want.String()) {
				reason = tb.canonicalised
			}
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want, Reason: reason})
			out.Tuples[rowIdx] = t.With(ri, want)
		}
	}
	return log
}

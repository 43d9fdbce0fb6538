package cfd

import (
	"fmt"
	"math/bits"

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

// RepairOptions configures reference-based repair. Keys and LHS values are
// compared folded (relation.Fold: trimmed and lower-cased).
type RepairOptions struct {
	// KeyAttr is the result attribute used to look tuples up in the
	// reference data (typically "street").
	KeyAttr string
	// RefKeyAttr is the corresponding reference attribute.
	RefKeyAttr string
	// MaxEditDistance bounds fuzzy key repair (0 disables it).
	MaxEditDistance int
}

// DefaultRepairOptions repairs via street against reference streets with
// edit distance up to 2.
func DefaultRepairOptions() RepairOptions {
	return RepairOptions{KeyAttr: "street", RefKeyAttr: "street", MaxEditDistance: 2}
}

// Reference is clean reference data prepared for repair: everything repair
// needs that is a property of the reference, the CFDs and the options alone,
// built once however many result relations are repaired against it. The
// reference is read through its folded column views (relation.Folded), so it
// must be frozen; a result's cells are looked up in them row by row. A
// Reference memoises fuzzy key lookups across Repair calls, so it is not safe
// for concurrent use; it is meant to live for one pass over the result
// relations.
type Reference struct {
	ref  *relation.Relation
	opts RepairOptions
	cfds []CFD
	// tables[i] serves cfds[i]; nil for constant CFDs and for variable CFDs
	// naming an attribute the reference lacks.
	tables []*refTable

	// keys is the folded view of the reference key column rki; nil when
	// fuzzy key repair is off or the reference lacks the key attribute. The
	// first spelling of a folded key is the cell at its first row.
	keys *relation.Folded
	rki  int
	// keysByLen buckets the key codes by byte length: an edit distance
	// within the bound needs lengths within the bound. masks[c] is key c's
	// byteMask.
	keysByLen map[int][]int32
	masks     []uint64
	// fuzzy memoises closest per unknown folded key: the answer depends on
	// the key and the reference only, and result relations share keys.
	fuzzy map[string]fuzzyHit
	// row is boundedEditDistance's scratch, sized for the longest key.
	row []int
}

// refTable is one variable CFD's view of the reference, indexed by the
// groups of the reference's folded LHS codes.
type refTable struct {
	// lhs are the reference columns of the CFD's LHS, in its order; steps
	// numbers their combinations as combine does.
	lhs   []int
	steps []map[uint64]int32
	// want[g] is the first RHS value of group g's rows, null when they have
	// none; ambiguous[g] marks groups the reference gives more than one. rhs
	// is the folded view of the RHS column.
	want      []relation.Value
	ambiguous []bool
	rhs       *relation.Folded
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
// under opts: the reference keys by length, with their byte masks, for fuzzy
// key repair, and per variable CFD the LHS group → RHS table with its
// ambiguous groups. Repair then works as follows: for each variable CFD X → A
// whose attributes all map into both relations, result tuples matching a
// reference group on X get A corrected/filled from the (unique) reference
// value; additionally the key attribute itself is repaired fuzzily (typo'd
// streets snapped to the closest reference street sharing the tuple's other
// evidence).
func PrepareReference(ref *relation.Relation, cfds []CFD, opts RepairOptions) *Reference {
	r := &Reference{ref: ref, opts: opts, cfds: cfds, tables: make([]*refTable, len(cfds))}
	if rki := ref.Schema.AttrIndex(opts.RefKeyAttr); opts.MaxEditDistance > 0 && rki >= 0 {
		r.keys, r.rki = ref.Folded(rki), rki
		r.keysByLen = map[int][]int32{}
		r.masks = make([]uint64, len(r.keys.Values))
		r.fuzzy = map[string]fuzzyHit{}
		longest := 0
		for c, n := range r.keys.Values {
			r.keysByLen[len(n)] = append(r.keysByLen[len(n)], int32(c))
			r.masks[c] = byteMask(n)
			longest = max(longest, len(n))
		}
		r.row = make([]int, longest+1)
	}
	for i, c := range cfds {
		if !c.IsConstant() {
			r.tables[i] = prepareTable(ref, c)
		}
	}
	return r
}

// prepareTable builds c's reference table: LHS group -> unique RHS value.
func prepareTable(ref *relation.Relation, c CFD) *refTable {
	rli, ok := attrIndexes(ref, c.LHS)
	rri := ref.Schema.AttrIndex(c.RHS)
	if !ok || rri < 0 {
		return nil
	}
	via := fdKey(c.LHS, c.RHS)
	tb := &refTable{
		lhs:           rli,
		rhs:           ref.Folded(rri),
		filled:        "filled from reference via " + via,
		corrected:     "corrected from reference via " + via,
		canonicalised: "canonicalised via " + via,
	}
	groups, n := make([]int32, len(ref.Tuples)), 1 // no LHS: one group of all rows
	if len(rli) > 0 {
		first := ref.Folded(rli[0])
		cols := make([][]int32, len(rli)-1)
		for k, i := range rli[1:] {
			cols[k] = ref.Folded(i).Codes
		}
		groups, n, tb.steps = combine(first.Codes, len(first.Values), cols)
	}
	tb.want, tb.ambiguous = make([]relation.Value, n), make([]bool, n)
	for row, g := range groups {
		v := ref.Tuples[row][rri]
		if g < 0 || v.IsNull() {
			continue
		}
		if prev := tb.want[g]; prev.IsNull() {
			tb.want[g] = v
		} else if !prev.Equal(v) {
			tb.ambiguous[g] = true
		}
	}
	return tb
}

// group returns the reference group of a row whose LHS values carry the
// reference codes cols[k][row], or −1 when it is in none.
func (tb *refTable) group(cols [][]int32, row int) int32 {
	if len(cols) == 0 {
		return 0
	}
	g := cols[0][row]
	for k, step := range tb.steps {
		c := cols[k+1][row]
		if g < 0 || c < 0 {
			return -1
		}
		id, ok := step[pairKey(g, c)]
		if !ok {
			return -1
		}
		g = id
	}
	return g
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

// refCodes holds, for the result columns some variable CFD's LHS reads, each
// row's code in the same-named reference column's folded view: −1 for null
// and for a value the reference does not have. They are looked up once per
// row, and kept current as the repair steps rewrite cells.
type refCodes map[int]refColumn // by result column

type refColumn struct {
	codes []int32
	ref   *relation.Folded
}

// codes looks up the result columns the variable CFDs read.
func (r *Reference) codes(res *relation.Relation) refCodes {
	rc := refCodes{}
	for i, tb := range r.tables {
		if tb == nil {
			continue
		}
		for k, a := range r.cfds[i].LHS {
			ci := res.Schema.AttrIndex(a)
			if _, done := rc[ci]; ci < 0 || done {
				continue
			}
			col := refColumn{codes: make([]int32, len(res.Tuples)), ref: r.ref.Folded(tb.lhs[k])}
			for row, t := range res.Tuples {
				col.codes[row] = col.ref.Code(t[ci])
			}
			rc[ci] = col
		}
	}
	return rc
}

// rewrote brings the codes up to date with the cells a step rewrote.
func (rc refCodes) rewrote(out *relation.Relation, log []RepairAction) {
	for _, a := range log {
		if col, ok := rc[out.Schema.AttrIndex(a.Attr)]; ok {
			col.codes[a.Row] = col.ref.Code(a.New)
		}
	}
}

// Repair repairs one result relation against the prepared reference. The
// input relation is not modified; the repaired relation and the action log
// are returned. A row no repair touches is res's own row, shared: the steps
// below replace a row of out by a copy when they rewrite a cell in it.
func (r *Reference) Repair(res *relation.Relation) (*relation.Relation, []RepairAction) {
	out := res.Shallow()
	codes := r.codes(res)
	// Fuzzy key repair first: snap typo'd keys onto reference keys.
	log := r.fuzzyKeyRepair(out)
	codes.rewrote(out, log)
	// CFD-driven value repair.
	for i, c := range r.cfds {
		var step []RepairAction
		if c.IsConstant() {
			step = constantRepair(out, c)
		} else {
			step = r.variableRepair(out, c, r.tables[i], codes)
		}
		codes.rewrote(out, step)
		log = append(log, step...)
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
		if c := r.keys.Code(t[ki]); c >= 0 {
			// Known key: only canonicalise the spelling if it differs.
			if canonical := r.ref.Tuples[r.keys.First[c]][r.rki]; t[ki].String() != canonical.String() {
				log = append(log, RepairAction{Row: rowIdx, Attr: r.opts.KeyAttr,
					Old: t[ki], New: canonical, Reason: "reference spelling"})
				out.Tuples[rowIdx] = t.With(ki, canonical)
			}
			continue
		}
		if hit := r.closest(relation.Fold(t[ki])); hit.ok {
			log = append(log, RepairAction{Row: rowIdx, Attr: r.opts.KeyAttr,
				Old: t[ki], New: hit.canonical, Reason: hit.reason})
			out.Tuples[rowIdx] = t.With(ki, hit.canonical)
		}
	}
	return log
}

// byteMask is the set of a string's bytes, folded into 64 buckets. One byte
// edit sets or clears at most two bits, so two strings whose masks differ in
// more than 2·k bits are more than k edits apart.
func byteMask(s string) uint64 {
	var m uint64
	for i := 0; i < len(s); i++ {
		m |= 1 << (s[i] & 63)
	}
	return m
}

// closest looks an unknown key up among the reference keys: a hit is the one
// key at the smallest edit distance within the bound, a tie is a miss.
func (r *Reference) closest(n string) fuzzyHit {
	if hit, ok := r.fuzzy[n]; ok {
		return hit
	}
	bound := r.opts.MaxEditDistance
	mask := byteMask(n)
	best, bestD, ties := int32(-1), bound+1, 0
	for l := len(n) - bound; l <= len(n)+bound; l++ {
		for _, c := range r.keysByLen[l] {
			if bits.OnesCount64(mask^r.masks[c]) > 2*bound {
				continue
			}
			d := boundedEditDistance(n, r.keys.Values[c], bound, r.row)
			if d < 0 {
				continue
			}
			if d < bestD {
				best, bestD, ties = c, d, 1
			} else if d == bestD {
				ties++
			}
		}
	}
	var hit fuzzyHit
	if bestD <= bound && ties == 1 {
		hit = fuzzyHit{canonical: r.ref.Tuples[r.keys.First[best]][r.rki], ok: true,
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
func (r *Reference) variableRepair(out *relation.Relation, c CFD, tb *refTable, codes refCodes) []RepairAction {
	if tb == nil {
		return nil
	}
	li, ok := attrIndexes(out, c.LHS)
	ri := out.Schema.AttrIndex(c.RHS)
	if !ok || ri < 0 {
		return nil
	}
	cols := make([][]int32, len(li))
	for k, i := range li {
		cols[k] = codes[i].codes
	}
	var log []RepairAction
	for rowIdx, t := range out.Tuples {
		g := tb.group(cols, rowIdx)
		if g < 0 || tb.want[g].IsNull() || tb.ambiguous[g] {
			continue
		}
		want := tb.want[g]
		if t[ri].IsNull() {
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want, Reason: tb.filled})
			out.Tuples[rowIdx] = t.With(ri, want)
			continue
		}
		// Correct format-noisy values: same after folding but different
		// spelling → canonicalise; different after folding → reference wins
		// (it is clean by assumption).
		if t[ri].String() != want.String() {
			reason := tb.corrected
			if tb.rhs.Code(t[ri]) == tb.rhs.Code(want) { // want is there: they fold alike
				reason = tb.canonicalised
			}
			log = append(log, RepairAction{Row: rowIdx, Attr: c.RHS, Old: t[ri], New: want, Reason: reason})
			out.Tuples[rowIdx] = t.With(ri, want)
		}
	}
	return log
}

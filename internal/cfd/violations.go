package cfd

import "vada/internal/relation"

// Violation records a CFD violation in a relation.
type Violation struct {
	// CFD is the violated dependency.
	CFD CFD
	// Rows are the offending tuple indices: one row for constant-CFD
	// violations, the rows of a disagreeing group for variable CFDs.
	Rows []int
	// Attr is the attribute in violation (the CFD's RHS).
	Attr string
}

// Violations finds all violations of the dependency in rel. Attributes the
// relation lacks make the CFD inapplicable (no violations). Tuples with
// nulls in LHS∪{RHS} are skipped: missing data is an incompleteness issue,
// not an inconsistency.
func Violations(rel *relation.Relation, c CFD) []Violation { return encode(rel).violations(c) }

// violations is Violations over the encoded relation, which serves every CFD
// it is asked about with one encoding of each column.
func (e *encoded) violations(c CFD) []Violation {
	rel := e.rel
	li, ok := attrIndexes(rel, c.LHS)
	ri := rel.Schema.AttrIndex(c.RHS)
	if !ok || ri < 0 {
		return nil
	}
	cells := make([]PatternCell, len(li))
	for i, a := range c.LHS {
		cells[i] = c.Pattern[a]
	}
	matches := func(t relation.Tuple) bool {
		for i, cell := range cells {
			if v := t[li[i]]; v.IsNull() || (!cell.Any && !cell.Value.Equal(v)) {
				return false
			}
		}
		return !t[ri].IsNull()
	}

	var out []Violation
	if c.IsConstant() {
		want := c.Pattern[c.RHS].Value
		for rowIdx, t := range rel.Tuples {
			if matches(t) && !want.Equal(t[ri]) {
				out = append(out, Violation{CFD: c, Rows: []int{rowIdx}, Attr: c.RHS})
			}
		}
		return out
	}

	// Variable CFD: group matching tuples by LHS; groups with >1 distinct
	// RHS value violate. Most groups do not: rows are collected, in a second
	// pass, for the ones that do.
	groups, n := e.groups(li)
	rhs, _ := e.column(ri)
	usable := func(row int) bool { return groups[row] >= 0 && rhs[row] >= 0 && matches(rel.Tuples[row]) }
	seen := make([]int32, n) // per group: 0 nothing yet, 1+code of its first RHS, −1 several
	violating := 0
	for row, g := range groups {
		if !usable(row) {
			continue
		}
		if first := seen[g]; first == 0 {
			seen[g] = 1 + rhs[row]
		} else if first > 0 && first != 1+rhs[row] {
			seen[g] = -1
			violating++
		}
	}
	if violating == 0 {
		return nil
	}
	slot := make(map[int32]int, violating) // violating group → its place in out
	for row, g := range groups {
		if !usable(row) || seen[g] != -1 {
			continue
		}
		at, ok := slot[g]
		if !ok {
			at = len(out)
			slot[g] = at
			out = append(out, Violation{CFD: c, Attr: c.RHS})
		}
		out[at].Rows = append(out[at].Rows, row)
	}
	return out
}

// ConsistencyRate measures 1 − (fraction of tuples involved in at least one
// violation of any of the given CFDs). An empty relation or empty CFD set is
// perfectly consistent.
func ConsistencyRate(rel *relation.Relation, cfds []CFD) float64 {
	if rel.Cardinality() == 0 || len(cfds) == 0 {
		return 1
	}
	enc := encode(rel) // one encoding of each column for all the CFDs
	bad := map[int]bool{}
	for _, c := range cfds {
		for _, v := range enc.violations(c) {
			for _, r := range v.Rows {
				bad[r] = true
			}
		}
	}
	return 1 - float64(len(bad))/float64(rel.Cardinality())
}

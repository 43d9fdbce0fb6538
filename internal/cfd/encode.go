package cfd

import "vada/internal/relation"

// encoded is a relation read through its exact column views
// (relation.Exact): within a column equal values share a code, null is −1.
// Whatever partitions a relation by attribute values — Mine for every LHS set
// and RHS, Violations for every CFD of one relation — groups on the codes:
// composite keys are exact, and nothing is hashed that could collide. What
// cfd adds to the views is their combination into groups.
type encoded struct {
	rel *relation.Relation
}

func encode(rel *relation.Relation) *encoded { return &encoded{rel: rel} }

// column returns attribute i's codes, one per row, and how many there are.
func (e *encoded) column(i int) ([]int32, int) {
	x := e.rel.Exact(i)
	return x.Codes, x.N
}

// groups partitions the rows by their values at the attributes idx: per row
// the number of its group, −1 when one of the values is null, and the number
// of groups. No attributes make one group of all rows.
func (e *encoded) groups(idx []int) ([]int32, int) {
	if len(idx) == 0 {
		return make([]int32, len(e.rel.Tuples)), 1
	}
	out, n := e.column(idx[0])
	if len(idx) > 1 {
		cols := make([][]int32, len(idx)-1)
		for k, i := range idx[1:] {
			cols[k], _ = e.column(i)
		}
		out, n, _ = combine(out, n, cols)
	}
	return out, n
}

// combine refines a partition — n groups, per row its group or −1 for none —
// by the codes of further columns (−1 for null), left to right: each step
// numbers the distinct (group, code) pairs from 0 in row order, and a row
// with −1 in either is in no group. steps[k] is step k's numbering, which is
// how a row from elsewhere, coded alike, finds its group.
func combine(groups []int32, n int, cols [][]int32) ([]int32, int, []map[uint64]int32) {
	steps := make([]map[uint64]int32, len(cols))
	for k, codes := range cols {
		prev, seen := groups, make(map[uint64]int32, n)
		groups = make([]int32, len(prev))
		for row, g := range prev {
			if g < 0 || codes[row] < 0 {
				groups[row] = -1
				continue
			}
			key := pairKey(g, codes[row])
			id, known := seen[key]
			if !known {
				id = int32(len(seen))
				seen[key] = id
			}
			groups[row] = id
		}
		steps[k], n = seen, len(seen)
	}
	return groups, n, steps
}

func pairKey(group, code int32) uint64 { return uint64(group)<<32 | uint64(code) }

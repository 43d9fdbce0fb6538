package cfd

import (
	"math"

	"vada/internal/relation"
)

// encoded is a relation prepared for grouping: its columns as small integer
// codes, each column encoded the first time it is asked for. Within a column
// equal Value.Key means equal code, null is −1, and codes count up from 0 in
// row order. Whatever partitions a relation by attribute values — Mine for
// every LHS set and RHS, Violations for every CFD of one relation — groups on
// the codes: composite keys are exact, and nothing is hashed that could collide.
type encoded struct {
	rel  *relation.Relation
	cols [][]int32 // cols[attribute][row]; nil until asked for
	card []int     // card[attribute]: the distinct codes of an encoded column
}

func encode(rel *relation.Relation) *encoded {
	n := rel.Schema.Arity()
	return &encoded{rel: rel, cols: make([][]int32, n), card: make([]int, n)}
}

// valueKey is equal exactly when Value.Key is: same kind, same payload, −0
// apart from 0 and every NaN alike.
type valueKey struct {
	kind relation.Kind
	s    string
	n    uint64
}

func keyOf(v relation.Value) valueKey {
	k := valueKey{kind: v.Kind()}
	switch k.kind {
	case relation.KindString:
		k.s = v.Str()
	case relation.KindInt:
		k.n = uint64(v.IntVal())
	case relation.KindFloat:
		if f := v.FloatVal(); f == f {
			k.n = math.Float64bits(f)
		}
	case relation.KindBool:
		if v.BoolVal() {
			k.n = 1
		}
	}
	return k
}

// number gives each of n rows the number of its key among the distinct keys,
// counted from 0 in row order, or −1 where the row has none.
func number[K comparable](n int, key func(row int) (K, bool)) ([]int32, int) {
	out := make([]int32, n)
	seen := map[K]int32{}
	for row := range out {
		k, ok := key(row)
		if !ok {
			out[row] = -1
			continue
		}
		id, known := seen[k]
		if !known {
			id = int32(len(seen))
			seen[k] = id
		}
		out[row] = id
	}
	return out, len(seen)
}

// column returns attribute i's codes, one per row, and how many there are.
func (e *encoded) column(i int) ([]int32, int) {
	if e.cols[i] == nil {
		e.cols[i], e.card[i] = number(len(e.rel.Tuples), func(row int) (valueKey, bool) {
			v := e.rel.Tuples[row][i]
			return keyOf(v), !v.IsNull()
		})
	}
	return e.cols[i], e.card[i]
}

// groups partitions the rows by their values at the attributes idx: per row
// the number of its group, −1 when one of the values is null, and the number
// of groups. No attributes make one group of all rows. Columns are combined by
// numbering the distinct (group, code) pairs.
func (e *encoded) groups(idx []int) ([]int32, int) {
	if len(idx) == 0 {
		return make([]int32, len(e.rel.Tuples)), 1
	}
	out, n := e.column(idx[0])
	for _, i := range idx[1:] {
		groups := out
		codes, _ := e.column(i)
		out, n = number(len(groups), func(row int) (uint64, bool) {
			return uint64(groups[row])<<32 | uint64(codes[row]), groups[row] >= 0 && codes[row] >= 0
		})
	}
	return out, n
}

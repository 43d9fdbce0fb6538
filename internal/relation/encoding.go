package relation

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// A frozen relation — one in the knowledge base, or any relation nobody writes
// to any more — is encoded once per column, on the first request, and the
// encoding is shared by every reader: whatever groups, matches or joins on a
// column's values reads the codes instead of deriving them again. A column has
// two views:
//
//   - Exact numbers the values by identity (Value.Same): what CFD mining and
//     violation detection group on;
//   - Folded numbers them by Fold — trimmed, lower-cased display strings —
//     which is how reference repair, instance matching and join discovery
//     compare values.
//
// The views are not a cache: nothing invalidates them, because a relation
// that is asked for one must not be written to afterwards. Build a new
// relation instead (Shallow, Tuple.With). Under the kbcheck build tag every
// request verifies that the column still holds what it held when its view was
// built, and panics if not.

// Exact is a column numbered by identity.
type Exact struct {
	// Codes holds each row's code: rows with the same value (Value.Same) share
	// one, codes count up from 0 in row order, and null is −1.
	Codes []int32
	// N is the number of distinct non-null values: codes run from 0 to N−1.
	N int

	sum uint64 // the column's checksum when built, under kbcheck
}

// Folded is a column numbered by Fold.
type Folded struct {
	// Codes holds each row's code: rows whose values fold alike share one,
	// codes count up from 0 in row order, and null is −1. A non-null value
	// may fold to "", which is a value like any other.
	Codes []int32
	// Values holds the distinct folded strings, Values[c] the one coded c.
	Values []string
	// First holds the row where each folded string first occurs.
	First []int32
	// Index maps each folded string to its code.
	Index map[string]int32

	sum uint64
}

// Fold is what the folded view numbers a value by: its display string, trimmed
// of surrounding white space and lower-cased (strings.ToLower). Null folds to
// "", as the empty string does; the views tell them apart, Fold does not.
func Fold(v Value) string {
	buf, s, inBuf := fold(nil, v)
	if inBuf {
		return string(buf)
	}
	return s
}

// fold is Fold without an allocation for ASCII strings and numbers: either
// the folded string s, which is v's own string or a part of it, or, when
// inBuf, the folded bytes appended to buf[:0] (copy them to keep them).
func fold(buf []byte, v Value) (_ []byte, s string, inBuf bool) {
	switch v.kind {
	case KindString:
		s = strings.TrimSpace(v.s)
		upper := false
		for i := 0; i < len(s); i++ {
			if c := s[i]; c >= utf8.RuneSelf {
				return buf, strings.ToLower(s), false
			} else if 'A' <= c && c <= 'Z' {
				upper = true
			}
		}
		if !upper {
			return buf, s, false
		}
		buf = append(buf[:0], s...)
	case KindInt:
		return strconv.AppendInt(buf[:0], int64(v.n), 10), "", true
	case KindFloat:
		buf = strconv.AppendFloat(buf[:0], math.Float64frombits(v.n), 'g', -1, 64) // "NaN", "+Inf"
	default: // null and the booleans: "", "true", "false"
		return buf, v.String(), false
	}
	for i, c := range buf {
		if 'A' <= c && c <= 'Z' {
			buf[i] = c + 'a' - 'A'
		}
	}
	return buf, "", true
}

// Code returns the code of the string v folds to, −1 when v is null or the
// column has no value that folds alike. It does not allocate for ASCII
// strings and numbers.
func (f *Folded) Code(v Value) int32 {
	if v.IsNull() {
		return -1
	}
	var arr [64]byte
	if _, c, ok, _ := lookup(f.Index, arr[:0], v, false); ok {
		return c
	}
	return -1
}

// lookup returns the code index holds v's fold at and, when keep is set and
// index does not hold it, the fold itself, to be kept. buf is fold's.
func lookup(index map[string]int32, buf []byte, v Value, keep bool) (_ []byte, c int32, ok bool, s string) {
	buf, s, inBuf := fold(buf, v)
	if !inBuf {
		c, ok = index[s]
		return buf, c, ok, s
	}
	if c, ok = index[string(buf)]; !ok && keep {
		s = string(buf)
	}
	return buf, c, ok, s
}

// Head returns the first n distinct folded strings other than "", and the
// code of the last of them (−1 for none): a string other than "" is among
// them exactly when Index holds it at a code no greater. The slice is shared
// with the view unless "" had to be left out of it.
func (f *Folded) Head(n int) ([]string, int32) {
	k := min(n, len(f.Values))
	if e, ok := f.Index[""]; ok && int(e) < k {
		k = min(n+1, len(f.Values))
		head := make([]string, 0, k-1)
		head = append(append(head, f.Values[:e]...), f.Values[e+1:k]...)
		last := int32(k - 1)
		if last == e {
			last--
		}
		return head, last
	}
	return f.Values[:k], int32(k - 1)
}

// views holds a relation's column views, each built on its first request. It
// must not be copied — a copied relation would carry views of rows it may
// replace — and the mutex makes go vet's copylocks check say so.
type views struct {
	mu     sync.Mutex
	exact  []*Exact
	folded []*Folded
}

// Exact returns column i's exact view, building it on the first request. It
// is safe for concurrent use; the relation must not be written to afterwards.
func (r *Relation) Exact(i int) *Exact {
	r.views.mu.Lock()
	defer r.views.mu.Unlock()
	if r.views.exact == nil {
		r.views.exact = make([]*Exact, r.Schema.Arity())
	}
	e := r.views.exact[i]
	if e == nil {
		e = r.buildExact(i)
		r.views.exact[i] = e
	} else if checkViews {
		r.verify(i, e.sum)
	}
	return e
}

// Folded returns column i's folded view, building it on the first request. It
// is safe for concurrent use; the relation must not be written to afterwards.
func (r *Relation) Folded(i int) *Folded {
	r.views.mu.Lock()
	defer r.views.mu.Unlock()
	if r.views.folded == nil {
		r.views.folded = make([]*Folded, r.Schema.Arity())
	}
	f := r.views.folded[i]
	if f == nil {
		f = r.buildFolded(i)
		r.views.folded[i] = f
	} else if checkViews {
		r.verify(i, f.sum)
	}
	return f
}

// buildExact keys its map on the values themselves: == is Value.Same once
// every NaN has the one bit pattern nanBits.
func (r *Relation) buildExact(i int) *Exact {
	e := &Exact{Codes: make([]int32, len(r.Tuples))}
	seen := map[Value]int32{}
	for row, t := range r.Tuples {
		v := t[i]
		switch {
		case v.kind == KindNull:
			e.Codes[row] = -1
			continue
		case v.isNaN():
			v.n = nanBits
		}
		c, ok := seen[v]
		if !ok {
			c = int32(len(seen))
			seen[v] = c
		}
		e.Codes[row] = c
	}
	e.N = len(seen)
	if checkViews {
		e.sum = r.columnSum(i)
	}
	return e
}

func (r *Relation) buildFolded(i int) *Folded {
	f := &Folded{Codes: make([]int32, len(r.Tuples)), Index: map[string]int32{}}
	var buf []byte
	for row, t := range r.Tuples {
		if t[i].IsNull() {
			f.Codes[row] = -1
			continue
		}
		var c int32
		var ok bool
		var s string
		if buf, c, ok, s = lookup(f.Index, buf, t[i], true); !ok {
			c = int32(len(f.Values))
			f.Index[s] = c
			f.Values = append(f.Values, s)
			f.First = append(f.First, int32(row))
		}
		f.Codes[row] = c
	}
	if checkViews {
		f.sum = r.columnSum(i)
	}
	return f
}

// columnSum hashes column i's values and the row count.
func (r *Relation) columnSum(i int) uint64 {
	sum := uint64(len(r.Tuples))
	for _, t := range r.Tuples {
		sum = sum*0x100000001b3 ^ t[i].hash()
	}
	return sum
}

// verify panics if column i no longer sums to what it did when its view was
// built.
func (r *Relation) verify(i int, sum uint64) {
	if r.columnSum(i) != sum {
		panic(fmt.Sprintf("relation: column %q of %q was written to after its view was built (kbcheck)",
			r.Schema.Attrs[i].Name, r.Schema.Name))
	}
}

package relation

import (
	"fmt"
	"slices"
	"strings"
)

// Relation is an in-memory table: a schema plus an ordered bag of tuples.
// Relations are the unit of extensional data in VADA; transducers consume
// and produce them via the knowledge base.
type Relation struct {
	// Schema describes the columns of the relation.
	Schema Schema
	// Tuples holds the rows. Duplicates are permitted (bag semantics);
	// use Distinct for set semantics.
	Tuples []Tuple

	views views // the column views (Exact, Folded), once asked for
}

// New creates an empty relation with the given schema.
func New(schema Schema) *Relation {
	return &Relation{Schema: schema}
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.Tuples) }

// Append adds a tuple, validating its arity against the schema.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.Schema.Arity() {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s", len(t), r.Schema)
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAppend adds a tuple and panics on arity mismatch; for tests and
// generators building relations from literals.
func (r *Relation) MustAppend(vals ...any) {
	if err := r.Append(NewTuple(vals...)); err != nil {
		panic(err)
	}
}

// Clone returns a deep copy of the relation: what to hand the knowledge base
// (or anyone who will share it) when the original stays yours to write to.
func (r *Relation) Clone() *Relation {
	out := &Relation{Schema: r.Schema.WithName(r.Schema.Name), Tuples: make([]Tuple, len(r.Tuples))}
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// Shallow returns a relation with r's schema and a slice of its own holding
// r's rows: the rows themselves are shared. It is where changing a relation
// one must not write to starts — one the knowledge base holds, or one whose
// owner is unknown: replace the rows that change (Tuple.With) in the shallow
// copy, and the rest is never copied.
func (r *Relation) Shallow() *Relation {
	return &Relation{Schema: r.Schema, Tuples: slices.Clone(r.Tuples)}
}

// Column returns all values of the named attribute in tuple order.
func (r *Relation) Column(name string) ([]Value, error) {
	idx := r.Schema.AttrIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("relation: %s has no attribute %q", r.Schema.Name, name)
	}
	col := make([]Value, len(r.Tuples))
	for i, t := range r.Tuples {
		col[i] = t[idx]
	}
	return col, nil
}

// Project returns a new relation with only the named attributes, in order.
func (r *Relation) Project(names ...string) (*Relation, error) {
	schema, err := r.Schema.Project(names...)
	if err != nil {
		return nil, err
	}
	idxs := make([]int, len(names))
	for i, n := range names {
		idxs[i] = r.Schema.AttrIndex(n)
	}
	out := New(schema)
	out.Tuples = make([]Tuple, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		nt := make(Tuple, len(idxs))
		for i, idx := range idxs {
			nt[i] = t[idx]
		}
		out.Tuples = append(out.Tuples, nt)
	}
	return out, nil
}

// Distinct returns a copy with duplicate tuples removed, preserving first
// occurrence order.
func (r *Relation) Distinct() *Relation {
	out := New(r.Schema)
	seen := NewTally(len(r.Tuples))
	for _, t := range r.Tuples {
		if n := seen.Add(t); *n == 0 {
			*n = 1
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out
}

// Tally keeps an int per distinct tuple (Tuple.Same): a multiset's counts, a
// set's membership, flags. It holds the tuples it is given, not copies.
type Tally struct {
	head map[uint64]int32 // hash → 1 + the latest entry with that hash
	next []int32          // next[e]: 1 + the entry before e with e's hash, 0 for none
	keys []Tuple
	vals []int
}

// NewTally returns an empty tally with room for about n tuples.
func NewTally(n int) *Tally { return &Tally{head: make(map[uint64]int32, n)} }

// Find returns t's int, nil if t was never added; the pointer is good until
// the next Add.
func (c *Tally) Find(t Tuple) *int {
	if e := c.entry(t, t.Hash()); e >= 0 {
		return &c.vals[e]
	}
	return nil
}

// Add returns t's int, adding t with 0 if it is new; the pointer is good until
// the next Add.
func (c *Tally) Add(t Tuple) *int {
	h := t.Hash()
	if e := c.entry(t, h); e >= 0 {
		return &c.vals[e]
	}
	c.next = append(c.next, c.head[h])
	c.keys = append(c.keys, t)
	c.vals = append(c.vals, 0)
	c.head[h] = int32(len(c.keys))
	return &c.vals[len(c.vals)-1]
}

func (c *Tally) entry(t Tuple, h uint64) int {
	for e := c.head[h]; e > 0; e = c.next[e-1] {
		if c.keys[e-1].Same(t) {
			return int(e - 1)
		}
	}
	return -1
}

// Union returns the tuples of r followed by those of o; schemas must have
// equal arity. The receiving schema is kept. The rows are shared with r and
// o, not copied.
func (r *Relation) Union(o *Relation) (*Relation, error) {
	if r.Schema.Arity() != o.Schema.Arity() {
		return nil, fmt.Errorf("relation: union arity mismatch %s vs %s", r.Schema, o.Schema)
	}
	return &Relation{Schema: r.Schema, Tuples: slices.Concat(r.Tuples, o.Tuples)}, nil
}

// Identical reports whether o has r's schema and r's rows in r's order, each
// the same tuple (Tuple.Same).
func (r *Relation) Identical(o *Relation) bool {
	return r.Schema.Equal(o.Schema) && slices.EqualFunc(r.Tuples, o.Tuples, Tuple.Same)
}

// String renders the relation as a small aligned table, for traces and
// examples. Large relations are truncated to 20 rows.
func (r *Relation) String() string {
	const maxRows = 20
	names := r.Schema.AttrNames()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	limit := len(r.Tuples)
	truncated := false
	if limit > maxRows {
		limit, truncated = maxRows, true
	}
	cells := make([][]string, limit)
	for i := 0; i < limit; i++ {
		row := make([]string, len(names))
		for j, v := range r.Tuples[i] {
			if j >= len(names) {
				break
			}
			s := v.String()
			if v.IsNull() {
				s = "∅"
			}
			row[j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
		cells[i] = row
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%d tuples]\n", r.Schema, len(r.Tuples))
	writeRow := func(row []string) {
		for j, s := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	writeRow(names)
	for _, row := range cells {
		writeRow(row)
	}
	if truncated {
		fmt.Fprintf(&b, "... (%d more)\n", len(r.Tuples)-maxRows)
	}
	return b.String()
}

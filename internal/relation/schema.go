package relation

import (
	"fmt"
	"math/bits"
	"strings"
)

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	// Name is the attribute name, unique within its schema.
	Name string
	// Type is the declared kind of the attribute's values.
	Type Kind
}

// Schema describes the structure of a relation: its name and ordered
// attributes.
type Schema struct {
	// Name is the relation name (e.g. "rightmove", "target").
	Name string
	// Attrs are the ordered attributes of the relation.
	Attrs []Attribute
}

// NewSchema constructs a schema from alternating attribute specifications.
// Each spec is "name" (string-typed by default) or "name:kind" with kind one
// of string, int, float, bool. It panics on malformed specs: schemas are
// built from literals in code and tests, so a malformed spec is a programming
// error. Callers holding untrusted specs use ParseSchema instead.
func NewSchema(name string, attrSpecs ...string) Schema {
	s, err := ParseSchema(name, attrSpecs...)
	if err != nil {
		panic(fmt.Sprintf("relation: %v", err))
	}
	return s
}

// ParseSchema is NewSchema for untrusted input: a malformed attribute spec
// is an error, not a panic, so API handlers can turn it into a 400.
func ParseSchema(name string, attrSpecs ...string) (Schema, error) {
	attrs := make([]Attribute, 0, len(attrSpecs))
	for _, spec := range attrSpecs {
		attrName, kindName, found := strings.Cut(spec, ":")
		kind := KindString
		if found {
			k, err := KindFromString(kindName)
			if err != nil {
				return Schema{}, fmt.Errorf("bad attribute spec %q: %w", spec, err)
			}
			kind = k
		}
		if attrName == "" {
			return Schema{}, fmt.Errorf("bad attribute spec %q: empty name", spec)
		}
		attrs = append(attrs, Attribute{Name: attrName, Type: kind})
	}
	return Schema{Name: name, Attrs: attrs}, nil
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// HasAttr reports whether the schema contains the named attribute.
func (s Schema) HasAttr(name string) bool { return s.AttrIndex(name) >= 0 }

// AttrNames returns the attribute names in order.
func (s Schema) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// WithName returns a copy of the schema under a new relation name.
func (s Schema) WithName(name string) Schema {
	return Schema{Name: name, Attrs: append([]Attribute(nil), s.Attrs...)}
}

// Project returns a schema restricted to the named attributes, in the given
// order. Unknown attributes are an error.
func (s Schema) Project(names ...string) (Schema, error) {
	attrs := make([]Attribute, 0, len(names))
	for _, n := range names {
		i := s.AttrIndex(n)
		if i < 0 {
			return Schema{}, fmt.Errorf("relation: schema %s has no attribute %q", s.Name, n)
		}
		attrs = append(attrs, s.Attrs[i])
	}
	return Schema{Name: s.Name, Attrs: attrs}, nil
}

// Equal reports structural equality: same name, same attributes in the same
// order with the same types.
func (s Schema) Equal(o Schema) bool {
	if s.Name != o.Name || len(s.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range s.Attrs {
		if s.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "name(a:string, b:int)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(':')
		b.WriteString(a.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is an ordered list of values conforming (positionally) to a schema.
type Tuple []Value

// NewTuple builds a tuple from Go scalars for convenience in tests and
// generators. Supported argument types: nil, string, int, int64, float64,
// bool and Value.
func NewTuple(vals ...any) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case nil:
			t[i] = Null()
		case Value:
			t[i] = x
		case string:
			t[i] = String(x)
		case int:
			t[i] = Int(int64(x))
		case int64:
			t[i] = Int(x)
		case float64:
			t[i] = Float(x)
		case bool:
			t[i] = Bool(x)
		default:
			t[i] = String(fmt.Sprint(x))
		}
	}
	return t
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// With returns a copy of the tuple with cell i set to v; t is not written to.
func (t Tuple) With(i int, v Value) Tuple {
	out := t.Clone()
	out[i] = v
	return out
}

// Same reports whether t and o are one tuple: the same arity and, cell for
// cell, the same value (Value.Same). It is the identity of facts and of
// Distinct; Hash is consistent with it.
func (t Tuple) Same(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i, v := range t {
		if !v.Same(o[i]) {
			return false
		}
	}
	return true
}

// Hash hashes t consistently with Same: tuples that are Same hash alike. It is
// seeded per process, so it finds candidates and orders nothing.
func (t Tuple) Hash() uint64 {
	h := uint64(len(t))
	for _, v := range t {
		h = (bits.RotateLeft64(h, 23) ^ v.hash()) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

// Key returns a canonical string for the whole tuple, which orders tuples
// (snapshots, CSV exports). It is not an identity: a string holding the
// separator can give two different tuples one key. Compare with Same.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// String renders the tuple as "(v1, v2, ...)" with nulls shown as ∅.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		if v.IsNull() {
			b.WriteString("∅")
		} else {
			b.WriteString(v.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

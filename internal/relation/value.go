// Package relation provides the relational substrate used throughout VADA:
// typed values, schemas, tuples, relations, a small relational algebra and
// CSV import/export. Every artefact exchanged between transducers through
// the knowledge base — source tables, data-context reference tables, target
// results, metadata — is represented with the types in this package.
//
// A relation nobody writes to any more — every relation in the knowledge
// base is one — is encoded lazily, one column at a time, on the first request
// (Relation.Exact, Relation.Folded), and the encoding is shared by all its
// readers and safe for concurrent use. Only frozen relations may be asked for
// a view: nothing invalidates one, so a relation written to after a view of it
// was built answers with stale codes (the kbcheck build tag panics instead). A
// Relation is never copied by value, which would carry its views along; build
// a new one (Shallow, Clone).
package relation

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types supported by the VADA relational model.
type Kind int

const (
	// KindNull is the type of the null (missing) value.
	KindNull Kind = iota
	// KindString is a UTF-8 string.
	KindString
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindBool is a boolean.
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// KindFromString parses a kind name as produced by Kind.String.
func KindFromString(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "null":
		return KindNull, nil
	case "string", "str", "text":
		return KindString, nil
	case "int", "integer":
		return KindInt, nil
	case "float", "double", "real":
		return KindFloat, nil
	case "bool", "boolean":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown kind %q", s)
	}
}

// Value is an immutable typed scalar. The zero Value is null.
//
// Value is a small value type (no pointers beyond the string) and is intended
// to be passed and stored by value: 32 bytes, the kind, the string and one
// word n that holds the other kinds' payloads — the int, the float's bits, or
// 1 for true. A constructor sets only its kind's payload, so two values are
// one (Same) exactly when their fields are equal, or when both are NaN. The ==
// operator therefore compares floats by their bits, not as IEEE numbers:
// compare values with Same or Equal.
type Value struct {
	kind Kind
	s    string
	n    uint64
}

// Null returns the null value.
func Null() Value { return Value{} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; it is only meaningful for KindInt, and
// 0 for the other kinds.
func (v Value) IntVal() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// FloatVal returns the float payload; it is only meaningful for KindFloat, and
// 0 for the other kinds.
func (v Value) FloatVal() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// BoolVal returns the boolean payload; it is only meaningful for KindBool, and
// false for the other kinds.
func (v Value) BoolVal() bool { return v.kind == KindBool && v.n != 0 }

// isNaN reports whether v is a NaN float.
func (v Value) isNaN() bool {
	return v.kind == KindFloat && v.n&^(1<<63) > 0x7ff0000000000000
}

// AsFloat converts numeric values to float64. ok is false for non-numeric
// values (including null).
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n)), true
	case KindFloat:
		return math.Float64frombits(v.n), true
	default:
		return 0, false
	}
}

// String renders the value for display. Null renders as the empty string so
// that CSV round-trips preserve missing values.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	default:
		return ""
	}
}

// Key returns a canonical representation usable as a map key. Unlike String,
// Key distinguishes null from the empty string and 1 (int) from "1".
func (v Value) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00N"
	case KindString:
		return "\x00S" + v.s
	case KindInt:
		return "\x00I" + strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return "\x00F" + strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindBool:
		if v.n != 0 {
			return "\x00Bt"
		}
		return "\x00Bf"
	default:
		return "\x00?"
	}
}

// Same reports whether v and o are one value: the same kind and payload,
// floats by their bits but every NaN one value. Unlike Equal, Int(2) and
// Float(2) differ, and so do 0 and -0. See Tuple.Same.
func (v Value) Same(o Value) bool {
	return v == o || v.isNaN() && o.isNaN()
}

// hash is consistent with Same: the kind and the payload, every NaN alike.
func (v Value) hash() uint64 {
	x := uint64(v.kind)*0xbf58476d1ce4e5b9 ^ v.n
	switch {
	case v.kind == KindString:
		x ^= maphash.String(hashSeed, v.s)
	case v.isNaN():
		x = nanBits
	}
	return x
}

// nanBits is the one bit pattern that stands for every NaN where values are
// hashed or keyed by their bits: math.NaN()'s.
const nanBits = 0x7ff8000000000001

// hashSeed is per process: a hash only finds candidates, and Same decides.
var hashSeed = maphash.MakeSeed()

// Equal reports whether two values are identical (same kind, same payload).
// Numeric values of different kinds are compared numerically, so
// Int(2).Equal(Float(2)) is true; null equals only null.
func (v Value) Equal(o Value) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindString:
			return v.s == o.s
		case KindInt, KindBool:
			return v.n == o.n
		case KindFloat:
			return math.Float64frombits(v.n) == math.Float64frombits(o.n)
		}
	}
	if vf, ok := v.AsFloat(); ok {
		if of, ok2 := o.AsFloat(); ok2 {
			return vf == of
		}
	}
	return false
}

// Compare orders values: null < bool < numeric < string; within a kind the
// natural order applies, and ints compare with floats numerically. It returns
// -1, 0 or +1.
func (v Value) Compare(o Value) int {
	ra, rb := v.rank(), o.rank()
	if ra != rb {
		return sign(ra - rb)
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return boolCompare(v.n != 0, o.n != 0)
	case ra == 2: // numeric
		vf, _ := v.AsFloat()
		of, _ := o.AsFloat()
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(v.s, o.s)
	}
}

func (v Value) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func sign(i int) int {
	switch {
	case i < 0:
		return -1
	case i > 0:
		return 1
	default:
		return 0
	}
}

func boolCompare(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

// Parse converts a textual field into a Value of the given kind. Empty text
// always parses to null, matching the CSV convention used by Relation I/O.
func Parse(text string, kind Kind) (Value, error) {
	if text == "" {
		return Null(), nil
	}
	switch kind {
	case KindNull:
		return Null(), nil
	case KindString:
		return String(text), nil
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(text), 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parsing %q as int: %w", text, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return Null(), fmt.Errorf("relation: parsing %q as float: %w", text, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			// No wire form holds them: a session that stored one could not
			// be journaled or snapshotted.
			return Null(), fmt.Errorf("relation: parsing %q as float: not a finite number", text)
		}
		return Float(f), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.TrimSpace(text))
		if err != nil {
			return Null(), fmt.Errorf("relation: parsing %q as bool: %w", text, err)
		}
		return Bool(b), nil
	default:
		return Null(), fmt.Errorf("relation: unknown kind %v", kind)
	}
}

// Infer guesses the most specific kind able to represent text: int, then
// float, then bool, then string. Empty text infers null. Text that spells
// NaN or an infinity stays text: a float must be finite to be encoded.
func Infer(text string) Value {
	if text == "" {
		return Null()
	}
	t := strings.TrimSpace(text)
	if mayBeNumber(t) {
		if i, err := strconv.ParseInt(t, 10, 64); err == nil {
			return Int(i)
		}
		if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) {
			return Float(f)
		}
	}
	if t == "true" || t == "false" {
		return Bool(t == "true")
	}
	return String(text)
}

// mayBeNumber reports whether t has only bytes that occur in the finite
// numbers strconv.ParseInt (base 10) or strconv.ParseFloat accepts: digits,
// signs, the point, the underscore, and the letters of hexadecimal floats and
// exponents. Most text has others, and a failed strconv parse allocates its
// error: asking first keeps inference of a street free.
func mayBeNumber(t string) bool {
	for i := 0; i < len(t); i++ {
		if !numberByte[t[i]] {
			return false
		}
	}
	return true
}

var numberByte = func() (table [256]bool) {
	for _, c := range []byte("0123456789+-._abcdefABCDEFxXpP") {
		table[c] = true
	}
	return table
}()

// Coerce attempts to convert v to the requested kind, e.g. String("3") to
// Int(3). Null coerces to null of any kind. ok is false if conversion is
// impossible without loss of meaning: a float that is not whole or lies
// outside int64's range does not become an int, and text that spells NaN or
// an infinity does not become a float, as Parse refuses it.
func Coerce(v Value, kind Kind) (Value, bool) {
	if v.kind == kind || v.IsNull() {
		return v, true
	}
	switch kind {
	case KindString:
		return String(v.String()), true
	case KindInt:
		switch v.kind {
		case KindFloat:
			// -2⁶³ is exact as a float64, 2⁶³ is the first float past int64;
			// NaN fails every comparison.
			if f := v.FloatVal(); f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
				return Int(int64(f)), true
			}
		case KindString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64); err == nil {
				return Int(i), true
			}
		}
	case KindFloat:
		switch v.kind {
		case KindInt:
			return Float(float64(v.IntVal())), true
		case KindString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64); err == nil && !math.IsNaN(f) && !math.IsInf(f, 0) {
				return Float(f), true
			}
		}
	case KindBool:
		if v.kind == KindString {
			if b, err := strconv.ParseBool(strings.TrimSpace(v.s)); err == nil {
				return Bool(b), true
			}
		}
	}
	return Null(), false
}

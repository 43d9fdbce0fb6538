package relation

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Decoder reads JSON straight from a byte slice: the wire forms the Append
// encoders write — Value, Tuple, Relation — and, for formats that wrap them
// such as the knowledge-base snapshot, the objects, arrays, unsigned integers
// and ignored values around them. It takes one pass and no reflection.
//
// It accepts what encoding/json accepts into the same Go types, and decodes
// it to the same result: strings unescape as encoding/json unescapes them
// (invalid UTF-8 and unpaired surrogates become U+FFFD), numbers parse with
// strconv, null leaves a field as it was, and an ignored value must still be
// JSON no deeper than encoding/json's nesting limit. One thing it refuses
// that encoding/json took: a Value's object is closed — its keys are k, s, i,
// f and b, each at most once, spelt exactly — and any other fails with
// ErrValueKey.
type Decoder struct {
	data  []byte
	off   int
	depth int // the arrays and objects open at off, where a value may be skipped

	// buf holds a string's bytes while escapes are resolved.
	buf []byte
}

// ErrValueKey is the error Decoder wraps when a Value's object has a key
// other than k, s, i, f and b, or one of them twice.
var ErrValueKey = errors.New("value key is not k, s, i, f or b once each")

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// NewDecoder returns a decoder reading data from its start.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("relation: JSON at offset %d: "+format, append([]any{d.off}, args...)...)
}

// unexpected reports the byte at the decoder's offset, or the end of input.
func (d *Decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.off], want)
}

// ws skips white space and returns the next byte, or 0 at the end.
func (d *Decoder) ws() byte {
	if d.off < len(d.data) && d.data[d.off] > ' ' {
		return d.data[d.off]
	}
	return d.skipWS()
}

func (d *Decoder) skipWS() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// consume skips white space and then c, reporting whether c was there.
func (d *Decoder) consume(c byte) bool {
	if d.ws() == c && d.off < len(d.data) {
		d.off++
		return true
	}
	return false
}

// Null consumes a null, if one comes next, and reports whether it did.
func (d *Decoder) Null() bool {
	if d.ws() == 'n' && bytes.HasPrefix(d.data[d.off:], []byte("null")) {
		d.off += 4
		return true
	}
	return false
}

// End reports an error unless nothing but white space is left.
func (d *Decoder) End() error {
	if d.ws(); d.off < len(d.data) {
		return d.unexpected("end of input")
	}
	return nil
}

// Object reads an object, calling field with each key, unescaped, once the
// decoder stands at the key's value; field must read or skip the value.
func (d *Decoder) Object(field func(key string) error) error {
	if !d.consume('{') {
		return d.unexpected("object")
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("nesting deeper than %d", maxDepth)
	}
	if !d.consume('}') {
		for {
			d.ws()
			key, err := d.str()
			if err != nil {
				return err
			}
			if !d.consume(':') {
				return d.unexpected("':'")
			}
			if err := field(string(key)); err != nil {
				return err
			}
			if d.consume(',') {
				continue
			}
			if !d.consume('}') {
				return d.unexpected("',' or '}'")
			}
			break
		}
	}
	d.depth--
	return nil
}

// array reads an array, calling elem once the decoder stands at each
// element; elem must read or skip it.
func (d *Decoder) array(elem func() error) error {
	if !d.consume('[') {
		return d.unexpected("array")
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("nesting deeper than %d", maxDepth)
	}
	if !d.consume(']') {
		for {
			if err := elem(); err != nil {
				return err
			}
			if d.consume(',') {
				continue
			}
			if !d.consume(']') {
				return d.unexpected("',' or ']'")
			}
			break
		}
	}
	d.depth--
	return nil
}

// Skip reads a value of any kind and drops it.
func (d *Decoder) Skip() error {
	switch d.ws() {
	case '{':
		return d.Object(func(string) error { return d.Skip() })
	case '[':
		return d.array(d.Skip)
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
}

func (d *Decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.unexpected(lit)
	}
	d.off += len(lit)
	return nil
}

// boolean reads true or false.
func (d *Decoder) boolean() (bool, error) {
	switch d.ws() {
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	}
	return false, d.unexpected("boolean")
}

// Uint64 reads a number that is an unsigned 64-bit integer.
func (d *Decoder) Uint64() (uint64, error) {
	d.ws()
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	if err != nil {
		return 0, d.errorf("%s is no unsigned 64-bit integer", num)
	}
	return n, nil
}

// integer reads a number that is a signed 64-bit integer.
func (d *Decoder) integer() (int64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return 0, d.errorf("%s is no 64-bit integer", num)
	}
	return n, nil
}

// float reads a number that is a finite 64-bit float.
func (d *Decoder) float() (float64, error) {
	num, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return 0, d.errorf("%s is no 64-bit float", num)
	}
	return f, nil
}

// number reads a JSON number and returns its text.
func (d *Decoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		d.off = i
		return nil, d.unexpected("number")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.unexpected("digit")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.off = i
			return nil, d.unexpected("digit")
		}
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.off = i
	return data[start:i], nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// text reads a string.
func (d *Decoder) text() (string, error) {
	d.ws()
	s, err := d.str()
	return string(s), err
}

// str reads a string at the offset and returns its bytes, unescaped: a
// slice of the input when the string needed no change, else of d.buf, valid
// until the next call.
func (d *Decoder) str() ([]byte, error) {
	data := d.data
	if d.off >= len(data) || data[d.off] != '"' {
		return nil, d.unexpected("string")
	}
	start := d.off + 1
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.off = i + 1
		return data[start:i], nil
	}
	// Escapes, control characters, or bytes beyond ASCII.
	b := append(d.buf[:0], data[start:i]...)
	for {
		if i >= len(data) {
			d.off = i
			return nil, d.unexpected("'\"'")
		}
		switch c := data[i]; {
		case c == '"':
			d.buf = b
			d.off = i + 1
			return b, nil
		case c < 0x20:
			d.off = i
			return nil, d.unexpected("string character")
		case c == '\\':
			if i+1 >= len(data) {
				d.off = i + 1
				return nil, d.unexpected("escape")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					d.off = i + 2
					return nil, d.unexpected("four hexadecimal digits")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A pair takes the next escape along; anything else
					// leaves it, and the first half is U+FFFD.
					var r2 rune = -1
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						r2 = hex4(data[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.unexpected("escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			// A byte that starts no UTF-8 sequence decodes as U+FFFD.
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
}

// plain marks the bytes a string holds as they are: ASCII, not a control
// character, the quote or the backslash.
var plain = func() (table [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		table[c] = c != '"' && c != '\\'
	}
	return table
}()

// hex4 reads four hexadecimal digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// value reads a Value's wire form: an object with the kind under k and the
// payload under s, i, f or b; a payload that is not the kind's own is read
// and dropped, and a null one is left out.
func (d *Decoder) value() (Value, error) {
	if !d.consume('{') {
		return Value{}, d.unexpected("value object")
	}
	var (
		seen    byte
		kind    = Kind(-1)
		kindErr error
		s       string
		i       int64
		f       float64
		b       bool
		field   byte
	)
	if !d.consume('}') {
		for {
			if d.ws() != '"' {
				return Value{}, d.unexpected("key")
			}
			// A key is one letter, almost always unescaped.
			if d.off+2 < len(d.data) && d.data[d.off+2] == '"' {
				field = d.data[d.off+1]
				d.off += 3
			} else {
				key, err := d.str()
				if err != nil {
					return Value{}, err
				}
				field = 0
				if len(key) == 1 {
					field = key[0]
				}
			}
			bit := valueKeys[field]
			if bit == 0 || seen&bit != 0 {
				return Value{}, d.errorf("%w", ErrValueKey)
			}
			seen |= bit
			if !d.consume(':') {
				return Value{}, d.unexpected("':'")
			}
			var err error
			if d.ws(); !d.Null() {
				switch field {
				case 'k':
					// An unknown name fails once the object is read, so
					// that a key after it is checked first.
					var name []byte
					if name, err = d.str(); err == nil {
						kind, kindErr = kindNamed(name)
					}
				case 's':
					var str []byte
					if str, err = d.str(); err == nil {
						s = string(str)
					}
				case 'i':
					i, err = d.integer()
				case 'f':
					f, err = d.float()
				case 'b':
					b, err = d.boolean()
				}
				if err != nil {
					return Value{}, err
				}
			}
			if d.consume(',') {
				continue
			}
			if !d.consume('}') {
				return Value{}, d.unexpected("',' or '}'")
			}
			break
		}
	}
	if kindErr != nil {
		return Value{}, d.errorf("%w", kindErr)
	}
	switch kind {
	case KindNull:
		return Null(), nil
	case KindString:
		return String(s), nil
	case KindInt:
		return Int(i), nil
	case KindFloat:
		return Float(f), nil
	case KindBool:
		return Bool(b), nil
	}
	return Value{}, d.errorf("value has no kind")
}

// valueKeys gives each key of a Value's object its bit.
var valueKeys = [256]byte{'k': 1, 's': 2, 'i': 4, 'f': 8, 'b': 16}

// kindNamed resolves a kind's name as KindFromString does, without copying
// the names Kind.String writes.
func kindNamed(name []byte) (Kind, error) {
	switch string(name) {
	case "string":
		return KindString, nil
	case "int":
		return KindInt, nil
	case "float":
		return KindFloat, nil
	case "bool":
		return KindBool, nil
	case "null":
		return KindNull, nil
	}
	return KindFromString(string(name))
}

// Tuples reads a list of tuples: an array of arrays of values, or null for
// a nil list. A null element is a nil tuple. The tuples share one backing
// array, each capped at its length.
func (d *Decoder) Tuples() ([]Tuple, error) {
	if d.Null() {
		return nil, nil
	}
	if !d.consume('[') {
		return nil, d.unexpected("array of tuples")
	}
	// The values are read into scratch space, and copied once their number
	// is known.
	sc := scratchPool.Get().(*scratch)
	vals, ends := sc.vals[:0], sc.ends[:0]
	defer func() {
		clear(vals) // the scratch keeps no strings alive
		sc.vals, sc.ends = vals[:0], ends[:0]
		scratchPool.Put(sc)
	}()
	if !d.consume(']') {
		for {
			switch {
			case d.Null():
				ends = append(ends, -1)
			case !d.consume('['):
				return nil, d.unexpected("tuple")
			case d.consume(']'):
				ends = append(ends, len(vals))
			default:
				for {
					v, err := d.value()
					if err != nil {
						return nil, err
					}
					vals = append(vals, v)
					if d.consume(',') {
						continue
					}
					if !d.consume(']') {
						return nil, d.unexpected("',' or ']'")
					}
					break
				}
				ends = append(ends, len(vals))
			}
			if d.consume(',') {
				continue
			}
			if !d.consume(']') {
				return nil, d.unexpected("',' or ']'")
			}
			break
		}
	}
	backing := make([]Value, len(vals))
	copy(backing, vals)
	ts := make([]Tuple, len(ends))
	start := 0
	for i, end := range ends {
		switch {
		case end < 0:
		case end == start:
			ts[i] = Tuple{}
		default:
			ts[i] = backing[start:end:end]
			start = end
		}
	}
	return ts, nil
}

// scratch is where Tuples reads a list: the values of its tuples, and where
// each tuple ends (-1 for a null tuple). It is kept between lists, and between
// decoders, in scratchPool.
type scratch struct {
	vals []Value
	ends []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// attrWire is an attribute as its object holds it: the type still a name.
type attrWire struct{ name, typ string }

// Relation reads a relation's wire form, or null for a nil relation.
func (d *Decoder) Relation() (*Relation, error) {
	if d.Null() {
		return nil, nil
	}
	r := new(Relation)
	if err := d.relation(r); err != nil {
		return nil, err
	}
	return r, nil
}

// relation reads a relation's object into r; null leaves r empty. Keys
// match case-insensitively, unknown keys are skipped, and a repeated key
// reads its value over what the earlier one left, as encoding/json does.
func (d *Decoder) relation(r *Relation) error {
	var (
		name  string
		attrs []attrWire
		rows  []Tuple
	)
	if !d.Null() {
		err := d.Object(func(key string) error {
			var err error
			switch {
			case strings.EqualFold(key, "name"):
				if !d.Null() {
					name, err = d.text()
				}
			case strings.EqualFold(key, "attrs"):
				attrs, err = d.attrs(attrs)
			case strings.EqualFold(key, "rows"):
				rows, err = d.Tuples()
			default:
				err = d.Skip()
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	schema := Schema{Name: name}
	for _, a := range attrs {
		kind, err := KindFromString(a.typ)
		if err != nil {
			return fmt.Errorf("relation: decoding schema: %w", err)
		}
		schema.Attrs = append(schema.Attrs, Attribute{Name: a.name, Type: kind})
	}
	for _, row := range rows {
		if len(row) != schema.Arity() {
			return fmt.Errorf("relation: decoding %s: row arity %d, want %d", name, len(row), schema.Arity())
		}
	}
	if len(rows) == 0 {
		rows = nil
	}
	r.Schema, r.Tuples = schema, rows
	return nil
}

// attrs reads an array of attributes into the one a repeated key read
// before, as encoding/json reads into a slice: element by element over the
// old ones, each keeping what its object leaves out, then cut to length.
func (d *Decoder) attrs(attrs []attrWire) ([]attrWire, error) {
	if d.Null() {
		return nil, nil
	}
	n := 0
	err := d.array(func() error {
		if n < len(attrs) {
		} else if n < cap(attrs) {
			attrs = attrs[:n+1]
		} else {
			attrs = append(attrs, attrWire{})
		}
		a := &attrs[n]
		n++
		if d.Null() {
			return nil
		}
		return d.Object(func(key string) error {
			var err error
			switch {
			case strings.EqualFold(key, "name"):
				if !d.Null() {
					a.name, err = d.text()
				}
			case strings.EqualFold(key, "type"):
				if !d.Null() {
					a.typ, err = d.text()
				}
			default:
				err = d.Skip()
			}
			return err
		})
	})
	if n == 0 {
		return nil, err
	}
	return attrs[:n], err
}

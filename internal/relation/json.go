package relation

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The encoders below append wire forms by hand. Their output is byte for
// byte what encoding/json writes for the same values (HTML-safe string
// escapes, ES6 number formatting, omitempty fields, null for empty slices),
// which the differential tests hold them to.

// AppendJSON appends the value's kind-tagged wire form to b: the kind under
// k, and the payload under s, i, f or b unless it is zero, so that null, ""
// and "1" and 1 survive round trips. A NaN or infinite float fails with
// encoding/json's *json.UnsupportedValueError.
func (v Value) AppendJSON(b []byte) ([]byte, error) {
	if v.kind >= 0 && int(v.kind) < len(kindTags) {
		b = append(b, kindTags[v.kind]...)
	} else {
		b = append(b, `{"k":`...)
		b = AppendJSONString(b, v.kind.String())
	}
	var err error
	switch v.kind {
	case KindString:
		if v.s != "" {
			b = append(b, `,"s":`...)
			b = AppendJSONString(b, v.s)
		}
	case KindInt:
		if v.n != 0 {
			b = append(b, `,"i":`...)
			b = strconv.AppendInt(b, int64(v.n), 10)
		}
	case KindFloat:
		if f := math.Float64frombits(v.n); f != 0 { // -0 is left out, as omitempty does
			b = append(b, `,"f":`...)
			b, err = AppendJSONFloat(b, f)
		}
	case KindBool:
		if v.n != 0 {
			b = append(b, `,"b":true`...)
		}
	}
	return append(b, '}'), err
}

// kindTags are the wire forms' openings, by kind.
var kindTags = [...]string{
	KindNull:   `{"k":"null"`,
	KindString: `{"k":"string"`,
	KindInt:    `{"k":"int"`,
	KindFloat:  `{"k":"float"`,
	KindBool:   `{"k":"bool"`,
}

// MarshalJSON implements json.Marshaler with an explicit kind tag.
func (v Value) MarshalJSON() ([]byte, error) { return v.AppendJSON(nil) }

// AppendJSON appends the tuple as a JSON array of wire-form values; a nil
// tuple is null.
func (t Tuple) AppendJSON(b []byte) ([]byte, error) {
	if t == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = v.AppendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// AppendTuplesJSON appends the tuples as a JSON array of tuples; an empty
// list is null, as encoding/json writes an empty slice.
func AppendTuplesJSON(b []byte, ts []Tuple) ([]byte, error) {
	if len(ts) == 0 {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = t.AppendJSON(b); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// UnmarshalJSON implements json.Unmarshaler with Decoder: data must be one
// Value's wire form.
func (v *Value) UnmarshalJSON(data []byte) error {
	d := NewDecoder(data)
	x, err := d.value()
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return err
	}
	*v = x
	return nil
}

// AppendJSON appends the relation's wire form to b: its name, its
// attributes with their kinds, and its rows as tuples. A nil relation is
// null.
func (r *Relation) AppendJSON(b []byte) ([]byte, error) {
	if r == nil {
		return append(b, "null"...), nil
	}
	b = append(b, `{"name":`...)
	b = AppendJSONString(b, r.Schema.Name)
	b = append(b, `,"attrs":`...)
	if len(r.Schema.Attrs) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, a := range r.Schema.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"name":`...)
			b = AppendJSONString(b, a.Name)
			b = append(b, `,"type":`...)
			b = AppendJSONString(b, a.Type.String())
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":`...)
	rows, err := AppendTuplesJSON(b, r.Tuples)
	if err != nil {
		return rows, err
	}
	return append(rows, '}'), nil
}

// MarshalJSON implements json.Marshaler for whole relations.
func (r *Relation) MarshalJSON() ([]byte, error) {
	// Sized up front, the buffer is not copied as it grows: a string's wire
	// form is its bytes and about twenty more, any other value's under thirty.
	size := 64
	if r != nil {
		for _, t := range r.Tuples {
			for _, v := range t {
				size += len(v.s) + 28
			}
		}
	}
	return r.AppendJSON(make([]byte, 0, size))
}

// UnmarshalJSON implements json.Unmarshaler for whole relations, with
// Decoder.
func (r *Relation) UnmarshalJSON(data []byte) error {
	d := NewDecoder(data)
	var in Relation
	if err := d.relation(&in); err != nil {
		return err
	}
	if err := d.End(); err != nil {
		return err
	}
	r.Schema, r.Tuples = in.Schema, in.Tuples
	return nil
}

// AppendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it: control characters, the quote, the backslash and the HTML
// characters <, > and &; invalid UTF-8 becomes U+FFFD, and U+2028 and
// U+2029 are escaped.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// jsonSafe marks the ASCII bytes a JSON string holds as they are.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := range safe {
		safe[c] = c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// AppendJSONFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 and from 1e21 on, with the
// exponent's leading zero dropped. NaN and ±Inf have no JSON form and fail
// with the *json.UnsupportedValueError encoding/json reports for them.
func AppendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

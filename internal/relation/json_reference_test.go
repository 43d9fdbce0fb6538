package relation

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
)

// valueJSON, relationJSON and attrJSON are the wire forms as reflection
// sees them: the structs encoding/json encoded and decoded before the
// hand-written encoders and Decoder. They are the differential reference of
// both.
type valueJSON struct {
	K string  `json:"k"`
	S string  `json:"s,omitempty"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	B bool    `json:"b,omitempty"`
}

type relationJSON struct {
	Name  string          `json:"name"`
	Attrs []attrJSON      `json:"attrs"`
	Rows  [][]refDecValue `json:"rows"`
}

type attrJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// refDecValue is a Value decoded the way Value.UnmarshalJSON did before
// Decoder: reflection over valueJSON, its keys open and matched
// case-insensitively.
type refDecValue struct{ v Value }

func (r *refDecValue) UnmarshalJSON(data []byte) error {
	var in valueJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	kind, err := KindFromString(in.K)
	if err != nil {
		return fmt.Errorf("relation: decoding value: %w", err)
	}
	switch kind {
	case KindNull:
		r.v = Null()
	case KindString:
		r.v = String(in.S)
	case KindInt:
		r.v = Int(in.I)
	case KindFloat:
		r.v = Float(in.F)
	case KindBool:
		r.v = Bool(in.B)
	}
	return nil
}

// refDecodeRelation decodes a relation the way Relation.UnmarshalJSON did
// before Decoder.
func refDecodeRelation(data []byte) (*Relation, error) {
	var in relationJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, err
	}
	schema := Schema{Name: in.Name}
	for _, a := range in.Attrs {
		kind, err := KindFromString(a.Type)
		if err != nil {
			return nil, fmt.Errorf("relation: decoding schema: %w", err)
		}
		schema.Attrs = append(schema.Attrs, Attribute{Name: a.Name, Type: kind})
	}
	r := &Relation{Schema: schema}
	for _, row := range in.Rows {
		if len(row) != schema.Arity() {
			return nil, fmt.Errorf("relation: decoding %s: row arity %d, want %d", in.Name, len(row), schema.Arity())
		}
		var t Tuple
		if row != nil {
			t = make(Tuple, len(row))
		}
		for i, v := range row {
			t[i] = v.v
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r, nil
}

// reflectedValue is a Value encoded the way Value.MarshalJSON did before the
// hand-written encoder: reflection over valueJSON. It is the differential
// reference of Value.AppendJSON.
type reflectedValue struct{ v Value }

func (r reflectedValue) MarshalJSON() ([]byte, error) {
	v := r.v
	out := valueJSON{K: v.kind.String()}
	switch v.kind {
	case KindString:
		out.S = v.s
	case KindInt:
		out.I = v.IntVal()
	case KindFloat:
		out.F = v.FloatVal()
	case KindBool:
		out.B = v.BoolVal()
	}
	return json.Marshal(out)
}

func refRow(t Tuple) []reflectedValue {
	if t == nil {
		return nil
	}
	row := make([]reflectedValue, len(t))
	for i, v := range t {
		row[i] = reflectedValue{v}
	}
	return row
}

// refRelation is a Relation encoded the way Relation.MarshalJSON did before
// the hand-written encoder.
func refRelation(r *Relation) ([]byte, error) {
	type refRelationJSON struct {
		Name  string             `json:"name"`
		Attrs []attrJSON         `json:"attrs"`
		Rows  [][]reflectedValue `json:"rows"`
	}
	out := refRelationJSON{Name: r.Schema.Name}
	for _, a := range r.Schema.Attrs {
		out.Attrs = append(out.Attrs, attrJSON{Name: a.Name, Type: a.Type.String()})
	}
	for _, t := range r.Tuples {
		out.Rows = append(out.Rows, refRow(t))
	}
	return json.Marshal(out)
}

// sameEncoding fails unless the hand-written and the reference encodings
// agree: equal bytes, or both failing on the same unsupported float.
func sameEncoding(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		var g, w *json.UnsupportedValueError
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || g.Str != w.Str {
			t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// FuzzValueJSON holds Value, Tuple and Relation encoding to the reflection
// encoders they replaced, byte for byte, and holds the MarshalJSON wrappers
// to the same bytes. What is encoded decodes again: Value.UnmarshalJSON and
// Relation.UnmarshalJSON return what was encoded, as far as the wire form
// holds it (wired), and agree with the reflection decoders they replaced.
func FuzzValueJSON(f *testing.F) {
	f.Add("<a href=\"x\">&amp;</a>", int64(0), 0.0, false)
	f.Add("\xff\xfe bad \xc3", int64(-1), math.Copysign(0, -1), true)
	f.Add("line\u2028para\u2029", int64(1), 1e-7, false)
	f.Add("\x00\x01\b\f\n\r\t\\\x1f\x7f", int64(math.MinInt64), 1e21, true)
	f.Add("", int64(math.MaxInt64), 1e-6, false)
	f.Add("nan", int64(7), math.NaN(), false)
	f.Add("inf", int64(7), math.Inf(-1), true)
	f.Add("£180,000 – ☃", int64(42), 123456789.125, true)
	f.Add("x", int64(2), 5e-324, false)
	f.Add("y", int64(3), 1.7976931348623157e308, true)
	f.Fuzz(func(t *testing.T, s string, i int64, x float64, b bool) {
		row := Tuple{Null(), String(s), Int(i), Float(x), Bool(b), Value{kind: Kind(9)}}
		for _, v := range row {
			got, gotErr := v.AppendJSON(nil)
			want, wantErr := json.Marshal(reflectedValue{v})
			sameEncoding(t, "value "+v.Kind().String(), got, gotErr, want, wantErr)
			got, gotErr = json.Marshal(v)
			sameEncoding(t, "json.Marshal(value)", got, gotErr, want, wantErr)
			if gotErr == nil {
				decodesBack(t, got, v)
			}
		}
		got, gotErr := row.AppendJSON(nil)
		want, wantErr := json.Marshal(refRow(row))
		sameEncoding(t, "tuple", got, gotErr, want, wantErr)

		rels := []*Relation{
			{Schema: Schema{Name: s}},
			{Schema: NewSchema(s, "s", "i:int", "f:float", "b:bool"),
				Tuples: []Tuple{row[1:5], {Null(), Null(), Null(), Null()}, nil}},
			{Schema: Schema{Name: "r", Attrs: []Attribute{{Name: s, Type: Kind(9)}}}, Tuples: []Tuple{{}}},
		}
		for _, r := range rels {
			want, wantErr := refRelation(r)
			got, gotErr := r.AppendJSON(nil)
			sameEncoding(t, "relation", got, gotErr, want, wantErr)
			got, gotErr = json.Marshal(r)
			sameEncoding(t, "json.Marshal(relation)", got, gotErr, want, wantErr)
			if gotErr == nil {
				relationDecodesBack(t, got, r)
			}
		}
	})
}

// decodesBack holds the decoding of v's wire form to v, and to the
// reflection decoder; a kind with no name fails both.
func decodesBack(t *testing.T, data []byte, v Value) {
	t.Helper()
	var got Value
	gotErr := json.Unmarshal(data, &got)
	var ref refDecValue
	refErr := json.Unmarshal(data, &ref)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("decoding %s: error %v, reference error %v", data, gotErr, refErr)
	}
	if gotErr != nil {
		if v.Kind() <= KindBool {
			t.Fatalf("decoding %s: %v", data, gotErr)
		}
		return
	}
	want := wired(v)
	if !got.Same(want) || !got.Same(ref.v) {
		t.Fatalf("decoding %s: %#v, want %#v, reference %#v", data, got, want, ref.v)
	}
}

// wired is v as its wire form holds it: a −0 float is 0, and each byte of
// a string that is not UTF-8 is U+FFFD (which is what converting a string
// to runes makes of it).
func wired(v Value) Value {
	switch {
	case v.Kind() == KindFloat && v.FloatVal() == 0:
		return Float(0)
	case v.Kind() == KindString:
		return String(string([]rune(v.Str())))
	}
	return v
}

// relationDecodesBack holds the decoding of r's wire form to r, and to the
// reflection decoder. A row whose arity is not the schema's, or an attribute
// of a kind with no name, fails both.
func relationDecodesBack(t *testing.T, data []byte, r *Relation) {
	t.Helper()
	var got Relation
	gotErr := json.Unmarshal(data, &got)
	ref, refErr := refDecodeRelation(data)
	if (gotErr == nil) != (refErr == nil) {
		t.Fatalf("decoding %s: error %v, reference error %v", data, gotErr, refErr)
	}
	if gotErr != nil {
		return
	}
	if !sameRelation(&got, ref) {
		t.Fatalf("decoding %s: %v, reference %v", data, &got, ref)
	}
	want := &Relation{Schema: Schema{Name: string([]rune(r.Schema.Name))}}
	for _, a := range r.Schema.Attrs {
		want.Schema.Attrs = append(want.Schema.Attrs, Attribute{Name: string([]rune(a.Name)), Type: a.Type})
	}
	for _, row := range r.Tuples {
		var out Tuple
		if row != nil {
			out = make(Tuple, len(row))
		}
		for i, v := range row {
			out[i] = wired(v)
		}
		want.Tuples = append(want.Tuples, out)
	}
	if !sameRelation(&got, want) {
		t.Fatalf("decoding %s: %v, want %v", data, &got, want)
	}
}

// sameRelation reports whether a and b have equal schemas and rows that
// are Same, nil rows where the other has nil rows.
func sameRelation(a, b *Relation) bool {
	if !a.Schema.Equal(b.Schema) || len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i, t := range a.Tuples {
		if (t == nil) != (b.Tuples[i] == nil) || !t.Same(b.Tuples[i]) {
			return false
		}
	}
	return true
}

// TestValueJSONNotFinite: NaN and the infinities have no wire form, and
// fail as encoding/json fails on them.
func TestValueJSONNotFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Float(f).AppendJSON(nil)
		var unsupported *json.UnsupportedValueError
		if !errors.As(err, &unsupported) {
			t.Fatalf("Float(%v) encoded: %v", f, err)
		}
	}
}

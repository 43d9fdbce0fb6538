package relation

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"
)

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
// to the same bytes.
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
		}
	})
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

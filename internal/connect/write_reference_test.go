package connect

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"testing"

	"vada/internal/relation"
)

// refWrite is Write as it was before each row's key was computed once and
// JSONL was appended by hand: a stable sort that builds both Tuple.Key
// strings, and on a tie both encodings, on every comparison, and one
// json.Marshal per JSONL key and cell. It is the differential reference of
// the export sink.
func refWrite(rel *relation.Relation, format string) ([]byte, error) {
	canon := rel.Shallow()
	sort.SliceStable(canon.Tuples, func(i, j int) bool {
		a, b := canon.Tuples[i], canon.Tuples[j]
		if a.Key() != b.Key() {
			return a.Key() < b.Key()
		}
		ea, _ := a.AppendJSON(nil)
		eb, _ := b.AppendJSON(nil)
		if !bytes.Equal(ea, eb) {
			return bytes.Compare(ea, eb) < 0
		}
		for k := range a {
			if a[k].Key() != b[k].Key() {
				return a[k].Key() < b[k].Key()
			}
		}
		return false
	})
	var buf bytes.Buffer
	if format == FormatCSV {
		err := canon.WriteCSV(&buf)
		return buf.Bytes(), err
	}
	names := canon.Schema.AttrNames()
	for _, t := range canon.Tuples {
		row := []byte{'{'}
		for i, v := range t {
			if i > 0 {
				row = append(row, ',')
			}
			key, err := json.Marshal(names[i])
			if err != nil {
				return nil, err
			}
			row = append(append(row, key...), ':')
			var cell []byte
			switch v.Kind() {
			case relation.KindNull:
				cell = []byte("null")
			case relation.KindInt:
				cell, err = json.Marshal(v.IntVal())
			case relation.KindFloat:
				cell, err = json.Marshal(v.FloatVal())
			case relation.KindBool:
				cell, err = json.Marshal(v.BoolVal())
			default:
				cell, err = json.Marshal(v.Str())
			}
			if err != nil {
				return nil, err
			}
			row = append(row, cell...)
		}
		buf.Write(append(row, '}', '\n'))
	}
	return buf.Bytes(), nil
}

// FuzzExportDifferential holds the CSV and JSONL sinks to refWrite, byte
// for byte, and to themselves over the rows reversed: rows whose Tuple.Key
// strings tie (a string holding the key's separator), the HTML characters,
// invalid UTF-8, U+2028, both zeros, the float format cutoffs and NaN, which
// JSONL cannot encode.
func FuzzExportDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 3, 5}, "<a>&\u2028", 1e21)
	f.Add([]byte{3, 6, 5, 4, 3, 6, 5, 4}, "\xff", math.Copysign(0, -1))
	f.Add([]byte{9, 9, 1, 1}, "x,\"y\"\n", 1e-7)
	f.Add([]byte{9, 0}, "", math.NaN())
	f.Add([]byte{3, 6, 4, 5}, "", 0.0)
	f.Fuzz(func(t *testing.T, script []byte, s string, x float64) {
		vals := []relation.Value{
			relation.Null(), relation.String(s), relation.String(""), relation.String("a\x1f\x00Sb"),
			relation.String("a"), relation.String("b\x1f\x00Sc"), relation.String("c"), relation.Int(0),
			relation.Int(-3), relation.Float(x), relation.Float(math.Copysign(0, -1)), relation.Float(0),
			relation.Float(1e-7), relation.Bool(true), relation.String("x,\"y\"\n"),
		}
		rel := &relation.Relation{Schema: relation.Schema{Name: "r", Attrs: []relation.Attribute{
			{Name: s, Type: relation.KindString}, {Name: "b<&>\u2029", Type: relation.KindFloat}}}}
		for i := 0; i+1 < len(script); i += 2 {
			rel.Tuples = append(rel.Tuples, relation.Tuple{
				vals[int(script[i])%len(vals)], vals[int(script[i+1])%len(vals)]})
		}
		reversed := rel.Shallow()
		slices.Reverse(reversed.Tuples)
		for _, format := range []string{FormatCSV, FormatJSONL} {
			var got bytes.Buffer
			stats, err := Write(&got, rel, format)
			want, wantErr := refWrite(rel, format)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, reference error %v", format, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s:\n got %q\nwant %q", format, got.Bytes(), want)
			}
			if stats.Rows != len(rel.Tuples) || stats.Bytes != int64(got.Len()) {
				t.Fatalf("%s: stats %+v for %d rows, %d bytes", format, stats, len(rel.Tuples), got.Len())
			}
			var permuted bytes.Buffer
			if _, err := Write(&permuted, reversed, format); err != nil || !bytes.Equal(permuted.Bytes(), got.Bytes()) {
				t.Fatalf("%s: the rows reversed export differently (%v):\n got %q\nwant %q", format, err, permuted.Bytes(), got.Bytes())
			}
		}
	})
}

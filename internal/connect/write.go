package connect

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"vada/internal/relation"
)

// Write renders a relation to w in the given format, in canonical form:
// rows are sorted by their tuple key, and rows whose keys tie (a string
// holding the key's separator) by their JSON encodings, so two exports of
// equal relations are byte-identical whatever order upstream orchestration
// left the tuples in. CSV is RFC 4180 with a header row and empty cells for
// nulls; JSONL is one object per row with keys in schema order and JSON null
// for nulls. The relation is not mutated — the sort works on a copied tuple
// slice.
func Write(w io.Writer, rel *relation.Relation, format string) (Stats, error) {
	format, err := NormalizeFormat(format)
	if err != nil {
		return Stats{}, err
	}
	canon := canonical(rel)
	cw := &countingWriter{w: w}
	switch format {
	case FormatCSV:
		err = canon.WriteCSV(cw)
	case FormatJSONL:
		err = writeJSONL(cw, canon)
	}
	if err != nil {
		return Stats{}, err
	}
	return Stats{Rows: canon.Cardinality(), Bytes: cw.n, Format: format}, nil
}

// canonical is rel with its rows sorted by tuple key, each key computed
// once, and ties broken by compareTied, which runs only for the rows that tie.
func canonical(rel *relation.Relation) *relation.Relation {
	type keyed struct {
		key string
		t   relation.Tuple
	}
	rows := make([]keyed, len(rel.Tuples))
	for i, t := range rel.Tuples {
		rows[i] = keyed{t.Key(), t}
	}
	slices.SortStableFunc(rows, func(a, b keyed) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return compareTied(a.t, b.t)
	})
	canon := rel.Shallow()
	for i, r := range rows {
		canon.Tuples[i] = r.t
	}
	return canon
}

// compareTied orders two tuples whose keys tie — Tuple.Key is not
// injective — by their JSON encodings. An encoding stops at a NaN, so two
// that stop at one in the same place are ordered by their values' keys
// one by one; tuples that still compare equal write the same bytes.
func compareTied(a, b relation.Tuple) int {
	ea, _ := a.AppendJSON(nil)
	eb, _ := b.AppendJSON(nil)
	if c := bytes.Compare(ea, eb); c != 0 {
		return c
	}
	return slices.CompareFunc(a, b, func(x, y relation.Value) int { return strings.Compare(x.Key(), y.Key()) })
}

// writeJSONL renders one JSON object per tuple, keys in schema order.
func writeJSONL(w io.Writer, rel *relation.Relation) error {
	keys := make([][]byte, rel.Schema.Arity())
	for i, name := range rel.Schema.AttrNames() {
		keys[i] = append(relation.AppendJSONString(nil, name), ':')
	}
	var buf []byte
	for _, t := range rel.Tuples {
		buf = append(buf[:0], '{')
		for i, v := range t {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, keys[i]...)
			var err error
			if buf, err = appendCell(buf, v); err != nil {
				return err
			}
		}
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("connect: writing JSONL row: %w", err)
		}
	}
	return nil
}

// appendCell appends one cell as plain JSON (not the knowledge base's
// kind-tagged wire form): null, string, number or bool.
func appendCell(b []byte, v relation.Value) ([]byte, error) {
	switch v.Kind() {
	case relation.KindNull:
		return append(b, "null"...), nil
	case relation.KindInt:
		return strconv.AppendInt(b, v.IntVal(), 10), nil
	case relation.KindFloat:
		b, err := relation.AppendJSONFloat(b, v.FloatVal())
		if err != nil {
			return nil, fmt.Errorf("connect: encoding JSONL value: %w", err)
		}
		return b, nil
	case relation.KindBool:
		return strconv.AppendBool(b, v.BoolVal()), nil
	default:
		return relation.AppendJSONString(b, v.Str()), nil
	}
}

// countingWriter counts bytes through to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

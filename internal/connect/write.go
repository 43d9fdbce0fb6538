package connect

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"vada/internal/relation"
)

// Write renders a relation to w in the given format, in canonical form:
// rows are sorted by their tuple key, so two exports of equal relations are
// byte-identical regardless of how upstream orchestration ordered the
// tuples. CSV is RFC 4180 with a header row and empty cells for nulls;
// JSONL is one object per row with keys in schema order and JSON null for
// nulls. The relation is not mutated — the sort works on a copied tuple
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

// canonical is rel with its rows stably sorted by tuple key, each key
// computed once.
func canonical(rel *relation.Relation) *relation.Relation {
	type keyed struct {
		key string
		t   relation.Tuple
	}
	rows := make([]keyed, len(rel.Tuples))
	for i, t := range rel.Tuples {
		rows[i] = keyed{t.Key(), t}
	}
	slices.SortStableFunc(rows, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	canon := rel.Shallow()
	for i, r := range rows {
		canon.Tuples[i] = r.t
	}
	return canon
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

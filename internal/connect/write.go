package connect

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

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
	canon := rel.Shallow()
	sort.SliceStable(canon.Tuples, func(i, j int) bool {
		return canon.Tuples[i].Key() < canon.Tuples[j].Key()
	})
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

// writeJSONL renders one JSON object per tuple, keys in schema order.
func writeJSONL(w io.Writer, rel *relation.Relation) error {
	names := rel.Schema.AttrNames()
	for _, t := range rel.Tuples {
		buf := append([]byte(nil), '{')
		for i, v := range t {
			if i > 0 {
				buf = append(buf, ',')
			}
			key, err := json.Marshal(names[i])
			if err != nil {
				return fmt.Errorf("connect: encoding JSONL key: %w", err)
			}
			buf = append(buf, key...)
			buf = append(buf, ':')
			cell, err := marshalValue(v)
			if err != nil {
				return err
			}
			buf = append(buf, cell...)
		}
		buf = append(buf, '}', '\n')
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("connect: writing JSONL row: %w", err)
		}
	}
	return nil
}

// marshalValue renders one cell as plain JSON (not the knowledge base's
// kind-tagged wire form): null, string, number or bool.
func marshalValue(v relation.Value) ([]byte, error) {
	if v.IsNull() {
		return []byte("null"), nil
	}
	var out []byte
	var err error
	switch v.Kind() {
	case relation.KindInt:
		out, err = json.Marshal(v.IntVal())
	case relation.KindFloat:
		out, err = json.Marshal(v.FloatVal())
	case relation.KindBool:
		out, err = json.Marshal(v.BoolVal())
	default:
		out, err = json.Marshal(v.Str())
	}
	if err != nil {
		return nil, fmt.Errorf("connect: encoding JSONL value: %w", err)
	}
	return out, nil
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

package relation

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV writes the relation to w in RFC 4180 CSV with a header row. Null
// values are written as empty fields.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.AttrNames()); err != nil {
		return fmt.Errorf("relation: writing CSV header: %w", err)
	}
	row := make([]string, r.Schema.Arity())
	for _, t := range r.Tuples {
		for i, v := range t {
			row[i] = v.String()
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("relation: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a relation from CSV with a header row. If schema is non-nil,
// its attribute names must match the header and values are parsed with the
// declared types; otherwise types are inferred per column from the data (the
// most specific kind all non-empty fields of the column share).
func ReadCSV(name string, rd io.Reader, schema *Schema) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: CSV %s has no header", name)
	}
	header := records[0]
	body := records[1:]

	var sch Schema
	if schema != nil {
		if len(schema.Attrs) != len(header) {
			return nil, fmt.Errorf("relation: CSV %s header width %d does not match schema %s", name, len(header), *schema)
		}
		for i, a := range schema.Attrs {
			if a.Name != header[i] {
				return nil, fmt.Errorf("relation: CSV %s header %q does not match schema attribute %q", name, header[i], a.Name)
			}
		}
		sch = schema.WithName(name)
	} else {
		sch = InferSchema(name, header, body)
	}

	out := New(sch)
	for ri, rec := range body {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV %s row %d has %d fields, want %d", name, ri+1, len(rec), len(header))
		}
		t := make(Tuple, len(rec))
		for i, field := range rec {
			v, err := Parse(field, sch.Attrs[i].Type)
			if err != nil {
				// Fall back to string when a cell disagrees with the
				// column type: wrangling inputs are dirty by design.
				v = String(field)
			}
			t[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, nil
}

// InferSchema derives per-column kinds from tabular data: the most specific
// of int, float, bool, string shared by every non-empty cell of the column;
// all-empty columns are strings. Connectors reuse it to type rows decoded
// from external files.
func InferSchema(name string, header []string, body [][]string) Schema {
	kinds := make([]Kind, len(header))
	seen := make([]bool, len(header))
	for _, rec := range body {
		for i, field := range rec {
			if i >= len(header) || field == "" {
				continue
			}
			k := Infer(field).Kind()
			if !seen[i] {
				kinds[i], seen[i] = k, true
				continue
			}
			kinds[i] = generalize(kinds[i], k)
		}
	}
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		k := KindString
		if seen[i] {
			k = kinds[i]
		}
		attrs[i] = Attribute{Name: h, Type: k}
	}
	return Schema{Name: name, Attrs: attrs}
}

// generalize returns the least general kind covering both a and b:
// int ⊔ float = float; anything ⊔ string = string; bool mixes to string.
func generalize(a, b Kind) Kind {
	if a == b {
		return a
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	if numeric(a) && numeric(b) {
		return KindFloat
	}
	return KindString
}

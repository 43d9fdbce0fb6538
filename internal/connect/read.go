package connect

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"vada/internal/relation"
)

// ReadOptions parameterises one source read.
type ReadOptions struct {
	// Format is the wire format ("csv" or "jsonl"; empty = csv).
	Format string
	// Mapping renames raw columns onto attribute names. nil asks for
	// inference against Candidates; an explicit empty map disables both.
	Mapping map[string]string
	// Candidates are the schemas mapping inference matches headers against
	// (target schema first, then data-context relations). Ignored when
	// Mapping is non-nil.
	Candidates []relation.Schema
}

// Read decodes one external body into a relation named name: cap the bytes
// (a body past maxBytes fails with ErrTooLarge before any row is decoded),
// parse the format strictly, resolve the header→attribute mapping (declared
// or inferred), and type the columns by inference over the data. The whole
// body is decoded before anything is returned, so a failed read leaves no
// partial state anywhere.
func Read(name string, r io.Reader, opts ReadOptions) (*relation.Relation, Stats, error) {
	format, err := NormalizeFormat(opts.Format)
	if err != nil {
		return nil, Stats{}, err
	}
	data, err := readCapped(r)
	if err != nil {
		return nil, Stats{}, err
	}
	var header []string
	var body [][]string
	switch format {
	case FormatCSV:
		header, body, err = parseCSV(name, data)
	case FormatJSONL:
		header, body, err = parseJSONL(name, data)
	}
	if err != nil {
		return nil, Stats{}, err
	}
	mapping := opts.Mapping
	if mapping == nil {
		mapping = InferMapping(header, opts.Candidates)
	}
	header, err = MapHeader(header, mapping)
	if err != nil {
		return nil, Stats{}, err
	}
	sch := relation.InferSchema(name, header, body)
	out := relation.New(sch)
	for _, rec := range body {
		t := make(relation.Tuple, len(rec))
		for i, field := range rec {
			if field == "" {
				t[i] = relation.Null()
				continue
			}
			v, err := relation.Parse(field, sch.Attrs[i].Type)
			if err != nil {
				// Dirty cell disagreeing with its column type: keep it as a
				// string, wrangling inputs are messy by design.
				v = relation.String(field)
			}
			t[i] = v
		}
		out.Tuples = append(out.Tuples, t)
	}
	return out, Stats{Rows: out.Cardinality(), Bytes: int64(len(data)), Format: format}, nil
}

// readCapped reads at most maxBytes bytes, failing with ErrTooLarge when the
// input exceeds the cap.
func readCapped(r io.Reader) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: reading input: %v", ErrBadFormat, err)
	}
	if len(data) > maxBytes {
		return nil, fmt.Errorf("%w: input exceeds %d bytes", ErrTooLarge, maxBytes)
	}
	return data, nil
}

// parseCSV parses a strict CSV document: a header row plus rows of exactly
// the header's width. Unlike relation.ReadCSV it rejects ragged rows as
// ErrBadFormat — truncated uploads must fail loudly, not load partially.
func parseCSV(name string, data []byte) (header []string, body [][]string, err error) {
	cr := csv.NewReader(bytes.NewReader(data))
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: CSV %s: %v", ErrBadFormat, name, err)
	}
	if len(records) == 0 {
		return nil, nil, fmt.Errorf("%w: CSV %s has no header row", ErrBadFormat, name)
	}
	return records[0], records[1:], nil
}

// parseJSONL parses JSON-Lines: one flat JSON object per non-empty line.
// The first object's keys (sorted) fix the column set; later lines must
// carry exactly the same keys (ErrSchemaMismatch otherwise). Values must be
// scalars — nested arrays or objects are ErrBadFormat. Numbers render via
// json.Number so 3 stays an int downstream and 3.5 a float.
func parseJSONL(name string, data []byte) (header []string, body [][]string, err error) {
	lines := strings.Split(string(data), "\n")
	lineNo := 0
	for _, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		lineNo++
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			return nil, nil, fmt.Errorf("%w: JSONL %s line %d: %v", ErrBadFormat, name, lineNo, err)
		}
		if dec.More() {
			return nil, nil, fmt.Errorf("%w: JSONL %s line %d: trailing data after object", ErrBadFormat, name, lineNo)
		}
		if header == nil {
			header = make([]string, 0, len(obj))
			for k := range obj {
				header = append(header, k)
			}
			sort.Strings(header)
		} else if len(obj) != len(header) {
			return nil, nil, fmt.Errorf("%w: JSONL %s line %d has %d keys, want %d", ErrSchemaMismatch, name, lineNo, len(obj), len(header))
		}
		row := make([]string, len(header))
		for i, k := range header {
			v, ok := obj[k]
			if !ok {
				return nil, nil, fmt.Errorf("%w: JSONL %s line %d is missing key %q", ErrSchemaMismatch, name, lineNo, k)
			}
			row[i], err = scalarString(v)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: JSONL %s line %d key %q: %v", ErrBadFormat, name, lineNo, k, err)
			}
		}
		body = append(body, row)
	}
	if header == nil {
		return nil, nil, fmt.Errorf("%w: JSONL %s has no rows", ErrBadFormat, name)
	}
	return header, body, nil
}

// scalarString renders one JSONL value as the textual cell the column typer
// consumes; null becomes the empty cell.
func scalarString(v any) (string, error) {
	switch x := v.(type) {
	case nil:
		return "", nil
	case string:
		return x, nil
	case bool:
		if x {
			return "true", nil
		}
		return "false", nil
	case json.Number:
		return x.String(), nil
	default:
		return "", fmt.Errorf("nested value of type %T (want a scalar)", v)
	}
}

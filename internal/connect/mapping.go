package connect

import (
	"fmt"
	"strings"

	"vada/internal/relation"
)

// MapHeader renames raw source columns onto attribute names. With a declared
// mapping, every key must name a header column and no two columns may map
// onto the same attribute (ErrSchemaMismatch otherwise); unmapped columns
// keep their raw names. With a nil mapping the header passes through
// unchanged — callers wanting inference compose InferMapping first.
func MapHeader(header []string, mapping map[string]string) ([]string, error) {
	if len(mapping) > 0 {
		present := make(map[string]bool, len(header))
		for _, h := range header {
			present[h] = true
		}
		for from := range mapping {
			if !present[from] {
				return nil, fmt.Errorf("%w: mapping names column %q absent from header %v", ErrSchemaMismatch, from, header)
			}
		}
	}
	out := make([]string, len(header))
	used := map[string]string{}
	for i, h := range header {
		name := h
		if to, ok := mapping[h]; ok {
			name = to
		}
		if prev, ok := used[name]; ok {
			return nil, fmt.Errorf("%w: columns %q and %q both map onto attribute %q", ErrSchemaMismatch, prev, h, name)
		}
		used[name] = h
		out[i] = name
	}
	return out, nil
}

// InferMapping derives a header→attribute mapping from candidate schemas —
// in practice the session's target schema followed by its data-context
// reference relations. A header column maps onto the first candidate
// attribute (schemas in order, attributes in schema order) whose normalised
// name equals the column's normalised name; columns with no match are left
// out of the mapping and keep their raw names. The result is deterministic
// in the inputs: candidate precedence breaks every tie, and an attribute is
// claimed by at most one column — the one already named exactly so, else the
// first in header order — so no rename collides with a column's raw name.
func InferMapping(header []string, candidates []relation.Schema) map[string]string {
	// Attribute precedence: the first candidate schema to introduce a
	// normalised name owns it.
	canonical := map[string]string{}
	for _, sch := range candidates {
		for _, a := range sch.Attrs {
			key := normalizeName(a.Name)
			if key == "" {
				continue
			}
			if _, ok := canonical[key]; !ok {
				canonical[key] = a.Name
			}
		}
	}
	mapping := map[string]string{}
	claimed := map[string]bool{}
	for _, h := range header {
		if canonical[normalizeName(h)] == h {
			claimed[h] = true
		}
	}
	for _, h := range header {
		key := normalizeName(h)
		target, ok := canonical[key]
		if !ok || h == target || claimed[target] {
			continue
		}
		mapping[h] = target
		claimed[target] = true
	}
	return mapping
}

// normalizeName lowers a column or attribute name and strips everything but
// letters and digits, so "Post Code", "post_code" and "POSTCODE" all meet at
// "postcode".
func normalizeName(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

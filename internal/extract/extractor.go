package extract

import (
	"fmt"

	"vada/internal/relation"
)

// Provenance records where an extracted tuple came from, supporting the
// browsable trace the demonstration promises (§3).
type Provenance struct {
	// Row is the index of the tuple in the extracted relation.
	Row int
	// PageURL is the page the record was found on.
	PageURL string
	// RecordIndex is the record's position on that page.
	RecordIndex int
}

// Extract applies the wrapper to pages and reassembles a relation with the
// given schema. Attributes without a learned rule, and records missing a
// field, yield nulls. Values are re-typed by inference (the page serialised
// everything to text).
func (w *Wrapper) Extract(pages []Page, schema relation.Schema) (*relation.Relation, []Provenance, error) {
	rules := map[string]FieldRule{}
	for _, f := range w.Fields {
		rules[f.Attr] = f
	}
	out := relation.New(schema)
	var prov []Provenance
	for _, page := range pages {
		doc := ParseHTML(page.HTML)
		records := doc.Find(w.RecordTag, w.RecordClass)
		for ri, rec := range records {
			t := make(relation.Tuple, schema.Arity())
			for ai, attr := range schema.AttrNames() {
				rule, ok := rules[attr]
				if !ok {
					t[ai] = relation.Null()
					continue
				}
				el := rec.FindFirst(rule.Tag, rule.Class)
				if el == nil {
					t[ai] = relation.Null()
					continue
				}
				t[ai] = relation.Infer(el.TextContent())
			}
			prov = append(prov, Provenance{Row: out.Cardinality(), PageURL: page.URL, RecordIndex: ri})
			out.Tuples = append(out.Tuples, t)
		}
	}
	if out.Cardinality() == 0 && len(pages) > 0 {
		// Distinguish "empty site" from "wrapper matches nothing": if any
		// page has content but no records matched, the wrapper is broken.
		for _, page := range pages {
			doc := ParseHTML(page.HTML)
			if len(doc.Find("", "")) > 5 && len(doc.Find(w.RecordTag, w.RecordClass)) == 0 {
				return out, prov, fmt.Errorf("extract: wrapper %s matched no records on %s", w, page.URL)
			}
		}
	}
	return out, prov, nil
}

// BootstrapAnnotations fabricates induction examples from known rows of the
// source relation, simulating the user pointing at a few values on the
// page (or DIADEM's ontology-driven annotation). Null cells are skipped.
func BootstrapAnnotations(src *relation.Relation, rows []int) []Annotation {
	var anns []Annotation
	for _, r := range rows {
		if r < 0 || r >= src.Cardinality() {
			continue
		}
		for ai, attr := range src.Schema.AttrNames() {
			v := src.Tuples[r][ai]
			if v.IsNull() {
				continue
			}
			anns = append(anns, Annotation{Attr: attr, Value: v.String()})
		}
	}
	return anns
}

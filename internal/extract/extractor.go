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
//
// Each page is read once, tag by tag, with no DOM: every element matching the
// record rule opens a record (one nested in another is a record of its own,
// and its elements are the outer one's too), and inside a record the first
// element in document order matching an attribute's rule gives that
// attribute the text of its subtree, white space normalised.
func (w *Wrapper) Extract(pages []Page, schema relation.Schema) (*relation.Relation, []Provenance, error) {
	x := extraction{wrapper: w, rules: make([]*FieldRule, schema.Arity()), out: relation.New(schema)}
	for ai, attr := range schema.AttrNames() {
		for i := range w.Fields {
			if w.Fields[i].Attr == attr {
				x.rules[ai] = &w.Fields[i] // the last rule for an attribute is the one that counts
			}
		}
	}
	broken := ""
	for _, page := range pages {
		// "Empty site" is not "wrapper matches nothing": a page with
		// content but no records means the wrapper is broken.
		if elements, records := x.page(page); broken == "" && elements > 5 && records == 0 {
			broken = page.URL
		}
	}
	if x.out.Cardinality() == 0 && broken != "" {
		return x.out, x.prov, fmt.Errorf("extract: wrapper %s matched no records on %s", w, broken)
	}
	return x.out, x.prov, nil
}

// extraction is the state of one Extract call.
type extraction struct {
	wrapper *Wrapper
	rules   []*FieldRule // by schema position, nil without a rule
	out     *relation.Relation
	prov    []Provenance

	// Per page, reused across pages: the names of the open elements, and the
	// records and captures among them — stacks too, since elements nest.
	open     []string
	records  []openRecord
	captures []capture
	// text collects the words of every text run seen while a capture is
	// open; a capture's text is what was appended since it started.
	text []byte
}

// openRecord is a record whose element, at depth in the open stack, is still
// open: its row of the output, filled as captures close, and which of its
// attributes have had their first match.
type openRecord struct {
	depth int
	tuple relation.Tuple
	found []bool
}

// capture is a matched field element, at depth in the open stack, that is
// still open: the cell it fills and where in text its words start.
type capture struct {
	depth int
	cell  *relation.Value
	start int
}

// matches reports whether an element of the given tag and class attribute
// matches a (tag, class) rule; an empty tag or class in the rule matches any.
func matches(ruleTag, ruleClass, tag, class string) bool {
	return (ruleTag == "" || ruleTag == tag) && (ruleClass == "" || hasClass(class, ruleClass))
}

// page extracts one page, returning how many elements and records it has.
func (x *extraction) page(page Page) (elements, records int) {
	for z := (tokenizer{src: page.HTML}); ; { // the end of a page leaves every stack empty
		switch t := z.next(); t.kind {
		case tokEOF:
			x.closeTo(0)
			return elements, records
		case tokText:
			if len(x.captures) > 0 {
				x.text = appendText(x.text, t.text)
			}
		case tokClose:
			for d := len(x.open) - 1; d >= 0; d-- {
				if x.open[d] == t.name {
					x.closeTo(d)
					break
				}
			}
		case tokOpen:
			elements++
			depth := len(x.open) // where the element goes if it stays open
			class := classAttr(t.attrs)
			// A field of every record it is inside of, if the first match.
			for _, rec := range x.records {
				for col, rule := range x.rules {
					if rule != nil && !rec.found[col] && matches(rule.Tag, rule.Class, t.name, class) {
						rec.found[col] = true
						x.captures = append(x.captures, capture{depth: depth, cell: &rec.tuple[col], start: len(x.text)})
					}
				}
			}
			if matches(x.wrapper.RecordTag, x.wrapper.RecordClass, t.name, class) {
				tuple := make(relation.Tuple, len(x.rules))
				x.prov = append(x.prov, Provenance{Row: len(x.out.Tuples), PageURL: page.URL, RecordIndex: records})
				x.out.Tuples = append(x.out.Tuples, tuple)
				records++
				if !t.leaf {
					x.records = append(x.records, openRecord{depth: depth, tuple: tuple, found: make([]bool, len(x.rules))})
				}
			}
			if t.leaf {
				x.closeTo(depth) // an element without content: its captures end empty
			} else {
				x.open = append(x.open, t.name)
			}
		}
	}
}

// closeTo closes every open element at depth or deeper: their captures give
// their cells the text collected since they started, their records end.
func (x *extraction) closeTo(depth int) {
	for n := len(x.captures); n > 0 && x.captures[n-1].depth >= depth; n-- {
		c := x.captures[n-1]
		text := x.text[c.start:]
		if len(text) > 0 && text[0] == ' ' {
			text = text[1:]
		}
		*c.cell = relation.Infer(string(text))
		x.captures = x.captures[:n-1]
	}
	if len(x.captures) == 0 {
		x.text = x.text[:0]
	}
	for n := len(x.records); n > 0 && x.records[n-1].depth >= depth; n-- {
		x.records = x.records[:n-1]
	}
	x.open = x.open[:min(depth, len(x.open))]
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

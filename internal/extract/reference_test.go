package extract

// The extraction path as it was before Extract became one pass over the page
// text and induction a scan of a flat outline: a DOM parser, tree searches
// over it (Find, FindFirst), subtree text rebuilt per call (TextContent), the
// Extract that parsed every page into a tree and the InduceWrapper that
// compared every element's text with every annotation and found the record
// boundary by walking the tree. They are the slow, obvious oracle of
// TestExtractDifferential and FuzzExtractDifferential, and what the parser
// tests read a tree with.
//
// The copy departs from the original in three places. Candidate shapes, in
// the field vote and the record boundary, are ordered by tag and then class:
// the original compared tag+class, so ("a", "bc") and ("ab", "c") tied and
// map iteration order picked the winner. The other two are inputs on which
// the original did not answer: the close tag of a script or style element is
// searched in place with ASCII letters folded (the original searched a
// strings.ToLower copy of the rest of the page, whose offsets are not the
// page's once a letter changes length), and white space between attributes
// is skipped by the rule that ends an attribute (the original trimmed a
// shorter set, and looped forever on a form feed after a tag name).

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"vada/internal/relation"
)

// NodeType distinguishes element and text nodes.
type NodeType int

const (
	// ElementNode is a tag node with children.
	ElementNode NodeType = iota
	// TextNode is a leaf holding character data.
	TextNode
)

// Node is a DOM node of the reference parser's tree.
type Node struct {
	Type NodeType
	// Tag is the lower-cased element name and class the class attribute
	// (element nodes only).
	Tag, class string
	// Text is a text node's character data, entities decoded.
	Text string
	// Children are the child nodes in document order, Parent the parent
	// element (nil for the root).
	Children []*Node
	Parent   *Node
}

// refIndexFold is strings.Index with the ASCII letters of s folded onto the
// lower-case sub, position by position.
func refIndexFold(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && (s[i+j] == sub[j] || 'A' <= s[i+j] && s[i+j] <= 'Z' && s[i+j]+'a'-'A' == sub[j]) {
			j++
		}
		if j == len(sub) {
			return i
		}
	}
	return -1
}

// Class returns the element's class attribute.
func (n *Node) Class() string { return n.class }

// HasClass reports whether the space-separated class list contains c.
func (n *Node) HasClass(c string) bool {
	for _, f := range strings.Fields(n.Class()) {
		if f == c {
			return true
		}
	}
	return false
}

// TextContent returns the concatenated text of the subtree, whitespace
// normalised.
func (n *Node) TextContent() string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(x *Node) {
		if x.Type == TextNode {
			b.WriteString(x.Text)
			b.WriteByte(' ')
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.Join(strings.Fields(b.String()), " ")
}

// Find returns all descendant elements matching tag (or any tag when empty)
// and class (or any class when empty), in document order.
func (n *Node) Find(tag, class string) []*Node {
	var out []*Node
	var walk func(*Node)
	walk = func(x *Node) {
		for _, c := range x.Children {
			if c.Type == ElementNode {
				if (tag == "" || c.Tag == tag) && (class == "" || c.HasClass(class)) {
					out = append(out, c)
				}
				walk(c)
			}
		}
	}
	walk(n)
	return out
}

// FindFirst returns the first match of Find, or nil.
func (n *Node) FindFirst(tag, class string) *Node {
	all := n.Find(tag, class)
	if len(all) == 0 {
		return nil
	}
	return all[0]
}

// refParseHTML parses an HTML document into a DOM rooted at a synthetic
// element. The parser is tolerant: unknown constructs are skipped, stray
// close tags ignored, and unclosed tags closed at end of input — enough for
// template-generated pages (it is not a general browser-grade parser).
func refParseHTML(src string) *Node {
	root := &Node{Type: ElementNode, Tag: "#root"}
	stack := []*Node{root}
	top := func() *Node { return stack[len(stack)-1] }
	i := 0
	n := len(src)
	for i < n {
		if src[i] != '<' {
			j := strings.IndexByte(src[i:], '<')
			var text string
			if j < 0 {
				text, i = src[i:], n
			} else {
				text, i = src[i:i+j], i+j
			}
			if t := decodeEntities(text); strings.TrimSpace(t) != "" {
				cur := top()
				child := &Node{Type: TextNode, Text: t, Parent: cur}
				cur.Children = append(cur.Children, child)
			}
			continue
		}
		// Comments and doctype.
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				break
			}
			i += 4 + end + 3
			continue
		}
		if strings.HasPrefix(src[i:], "<!") || strings.HasPrefix(src[i:], "<?") {
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			i += end + 1
			continue
		}
		// Closing tag.
		if strings.HasPrefix(src[i:], "</") {
			end := strings.IndexByte(src[i:], '>')
			if end < 0 {
				break
			}
			name := strings.ToLower(strings.TrimSpace(src[i+2 : i+end]))
			i += end + 1
			// Pop to the matching open tag if present.
			for d := len(stack) - 1; d > 0; d-- {
				if stack[d].Tag == name {
					stack = stack[:d]
					break
				}
			}
			continue
		}
		// Opening tag.
		end := strings.IndexByte(src[i:], '>')
		if end < 0 {
			break
		}
		raw := src[i+1 : i+end]
		i += end + 1
		selfClose := strings.HasSuffix(raw, "/")
		raw = strings.TrimSuffix(raw, "/")
		name, attrs := refParseTag(raw)
		if name == "" {
			continue
		}
		cur := top()
		el := &Node{Type: ElementNode, Tag: name, class: attrs["class"], Parent: cur}
		cur.Children = append(cur.Children, el)
		if !selfClose && !voidElements[name] {
			// script/style content is opaque: skip to close tag.
			if name == "script" || name == "style" {
				idx := refIndexFold(src[i:], "</"+name)
				if idx < 0 {
					break
				}
				gt := strings.IndexByte(src[i+idx:], '>')
				if gt < 0 {
					break
				}
				i += idx + gt + 1
				continue
			}
			stack = append(stack, el)
		}
	}
	return root
}

// refParseTag splits "div class='x' id=y" into name and attributes.
func refParseTag(raw string) (string, map[string]string) {
	attrs := map[string]string{}
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return "", attrs
	}
	i := 0
	for i < len(raw) && !unicode.IsSpace(rune(raw[i])) {
		i++
	}
	name := strings.ToLower(raw[:i])
	rest := raw[i:]
	for {
		for rest != "" && unicode.IsSpace(rune(rest[0])) {
			rest = rest[1:]
		}
		if rest == "" {
			break
		}
		eq := -1
		j := 0
		for j < len(rest) && !unicode.IsSpace(rune(rest[j])) {
			if rest[j] == '=' {
				eq = j
				break
			}
			j++
		}
		if eq < 0 {
			// Bare attribute.
			attrs[strings.ToLower(rest[:j])] = ""
			rest = rest[j:]
			continue
		}
		key := strings.ToLower(rest[:eq])
		rest = rest[eq+1:]
		var val string
		if rest != "" && (rest[0] == '"' || rest[0] == '\'') {
			q := rest[0]
			endQ := strings.IndexByte(rest[1:], q)
			if endQ < 0 {
				val, rest = rest[1:], ""
			} else {
				val, rest = rest[1:1+endQ], rest[endQ+2:]
			}
		} else {
			k := 0
			for k < len(rest) && !unicode.IsSpace(rune(rest[k])) {
				k++
			}
			val, rest = rest[:k], rest[k:]
		}
		attrs[key] = decodeEntities(val)
	}
	return name, attrs
}

// refExtract applies the wrapper to pages and reassembles a relation with the
// given schema. Attributes without a learned rule, and records missing a
// field, yield nulls. Values are re-typed by inference (the page serialised
// everything to text).
func refExtract(w *Wrapper, pages []Page, schema relation.Schema) (*relation.Relation, []Provenance, error) {
	rules := map[string]FieldRule{}
	for _, f := range w.Fields {
		rules[f.Attr] = f
	}
	out := relation.New(schema)
	var prov []Provenance
	for _, page := range pages {
		doc := refParseHTML(page.HTML)
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
			doc := refParseHTML(page.HTML)
			if len(doc.Find("", "")) > 5 && len(doc.Find(w.RecordTag, w.RecordClass)) == 0 {
				return out, prov, fmt.Errorf("extract: wrapper %s matched no records on %s", w, page.URL)
			}
		}
	}
	return out, prov, nil
}

// refInduceWrapper learns a wrapper from a sample page and annotations.
//
// Induction proceeds in two steps, a simplified form of classic wrapper
// induction:
//
//  1. For each annotated value, find the elements whose text equals the
//     value; each (tag, class) pair observed earns a vote for the
//     annotation's attribute. The most-voted pair becomes the field rule.
//  2. The record container is the nearest common ancestor shape: among
//     ancestors of matched elements, the (tag, class) pair that (a) occurs
//     repeatedly on the page and (b) contains at most one match per
//     occurrence, preferring the deepest such pair.
//
// At least two annotations for two different records are needed to
// discriminate the record boundary from page-level containers.
func refInduceWrapper(page Page, annotations []Annotation) (*Wrapper, error) {
	if len(annotations) == 0 {
		return nil, fmt.Errorf("extract: wrapper induction needs at least one annotation")
	}
	doc := refParseHTML(page.HTML)

	// Step 1: field rules by voting.
	votes := map[string]map[[2]string]int{} // attr -> (tag,class) -> votes
	var matched []*Node
	for _, ann := range annotations {
		target := strings.Join(strings.Fields(ann.Value), " ")
		if target == "" {
			continue
		}
		for _, el := range doc.Find("", "") {
			if el.TextContent() != target {
				continue
			}
			// Prefer the deepest element containing exactly this text.
			deepest := true
			for _, c := range el.Children {
				if c.Type == ElementNode && c.TextContent() == target {
					deepest = false
					break
				}
			}
			if !deepest {
				continue
			}
			if votes[ann.Attr] == nil {
				votes[ann.Attr] = map[[2]string]int{}
			}
			votes[ann.Attr][[2]string{el.Tag, firstClass(el.class)}]++
			matched = append(matched, el)
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("extract: no annotated value found on page %s", page.URL)
	}

	var fields []FieldRule
	for attr, vs := range votes {
		best, bestN := [2]string{}, 0
		keys := make([][2]string, 0, len(vs))
		for k := range vs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return refShapeLess(keys[i], keys[j]) })
		for _, k := range keys {
			if vs[k] > bestN {
				best, bestN = k, vs[k]
			}
		}
		fields = append(fields, FieldRule{Attr: attr, Tag: best[0], Class: best[1]})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Attr < fields[j].Attr })

	// Step 2: record boundary.
	recTag, recClass, err := refInduceRecordBoundary(doc.Find("", ""), matched)
	if err != nil {
		return nil, err
	}
	return &Wrapper{RecordTag: recTag, RecordClass: recClass, Fields: fields}, nil
}

// refShapeLess orders (tag, class) shapes by tag, then class.
func refShapeLess(a, b [2]string) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// refInduceRecordBoundary picks the deepest repeated ancestor shape that
// isolates matches.
func refInduceRecordBoundary(elements, matched []*Node) (string, string, error) {
	// Count occurrences of every (tag, class) shape on the page.
	shapeCount := map[[2]string]int{}
	for _, el := range elements {
		shapeCount[[2]string{el.Tag, firstClass(el.class)}]++
	}
	// For each match, walk ancestors; candidate shapes must repeat on the
	// page. Track per-shape: how many distinct ancestor elements of matches,
	// and depth.
	type cand struct {
		shape     [2]string
		elems     map[*Node]int // ancestor element -> #matches inside
		depthVote int
	}
	cands := map[[2]string]*cand{}
	for _, m := range matched {
		depth := 0
		for a := m.Parent; a != nil && a.Tag != "#root"; a = a.Parent {
			depth++
			sh := [2]string{a.Tag, firstClass(a.class)}
			if shapeCount[sh] < 2 {
				continue // not repeated: page-level container
			}
			c, ok := cands[sh]
			if !ok {
				c = &cand{shape: sh, elems: map[*Node]int{}}
				cands[sh] = c
			}
			c.elems[a]++
			c.depthVote += depth
		}
	}
	// score prefers shapes whose instances isolate annotations (fewest
	// matches per element), spread across more distinct elements; deeper
	// shapes (closer to the data) break ties.
	score := func(c *cand) float64 {
		total := 0
		for _, n := range c.elems {
			total += n
		}
		spread := float64(len(c.elems))
		isolation := spread / float64(total) // 1.0 when one match per element
		avgDepth := float64(c.depthVote) / float64(total)
		return isolation*1000 + spread*10 + avgDepth
	}
	var best *cand
	keys := make([][2]string, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return refShapeLess(keys[i], keys[j]) })
	for _, k := range keys {
		c := cands[k]
		if best == nil || score(c) > score(best) {
			best = c
		}
	}
	if best == nil {
		return "", "", fmt.Errorf("extract: could not induce a record boundary (need annotations from ≥2 records)")
	}
	return best.shape[0], best.shape[1], nil
}

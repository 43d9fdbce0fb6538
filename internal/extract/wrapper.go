package extract

import (
	"fmt"
	"sort"
	"strings"
)

// Annotation is one training example for wrapper induction: the user (or a
// bootstrap heuristic) points at a value on a page and names the target
// attribute it instantiates. DIADEM derives such annotations from an
// ontology; here they come from the scenario generator or the caller.
type Annotation struct {
	// Attr is the attribute name the value belongs to.
	Attr string
	// Value is the exact text of the value on the page.
	Value string
}

// FieldRule is a learned per-attribute selector.
type FieldRule struct {
	// Attr is the attribute the rule extracts.
	Attr string
	// Tag and Class locate the value inside a record.
	Tag, Class string
}

// Wrapper is an induced extraction program for one portal.
type Wrapper struct {
	// RecordTag and RecordClass locate the repeated record container.
	RecordTag, RecordClass string
	// Fields holds one rule per extracted attribute.
	Fields []FieldRule
}

// String summarises the wrapper.
func (w *Wrapper) String() string {
	parts := make([]string, len(w.Fields))
	for i, f := range w.Fields {
		parts[i] = fmt.Sprintf("%s←%s.%s", f.Attr, f.Tag, f.Class)
	}
	return fmt.Sprintf("wrapper{record=%s.%s, %s}", w.RecordTag, w.RecordClass, strings.Join(parts, " "))
}

// InduceWrapper learns a wrapper from a sample page and annotations.
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
func InduceWrapper(page Page, annotations []Annotation) (*Wrapper, error) {
	if len(annotations) == 0 {
		return nil, fmt.Errorf("extract: wrapper induction needs at least one annotation")
	}
	doc := ParseHTML(page.HTML)
	elements := doc.elements(nil)
	// Every element's text is known (ParseHTML computes each once), so an
	// annotation finds its elements by looking its text up.
	byText := make(map[string][]*Node, len(elements))
	for _, el := range elements {
		byText[el.Text] = append(byText[el.Text], el)
	}

	// Step 1: field rules by voting.
	votes := map[string]map[[2]string]int{} // attr -> (tag,class) -> votes
	var matched []*Node
	for _, ann := range annotations {
		target := strings.Join(strings.Fields(ann.Value), " ")
		if target == "" {
			continue
		}
	candidates:
		for _, el := range byText[target] {
			// Prefer the deepest element containing exactly this text.
			for _, c := range el.Children {
				if c.Type == ElementNode && c.Text == target {
					continue candidates
				}
			}
			if votes[ann.Attr] == nil {
				votes[ann.Attr] = map[[2]string]int{}
			}
			votes[ann.Attr][[2]string{el.Tag, firstClass(el)}]++
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
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0]+keys[i][1] < keys[j][0]+keys[j][1]
		})
		for _, k := range keys {
			if vs[k] > bestN {
				best, bestN = k, vs[k]
			}
		}
		fields = append(fields, FieldRule{Attr: attr, Tag: best[0], Class: best[1]})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Attr < fields[j].Attr })

	// Step 2: record boundary.
	recTag, recClass, err := induceRecordBoundary(elements, matched)
	if err != nil {
		return nil, err
	}
	return &Wrapper{RecordTag: recTag, RecordClass: recClass, Fields: fields}, nil
}

// elements appends the elements under n to out in document order.
func (n *Node) elements(out []*Node) []*Node {
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = c.elements(append(out, c))
		}
	}
	return out
}

func firstClass(n *Node) string {
	for f := range strings.FieldsSeq(n.class) {
		return f
	}
	return ""
}

// induceRecordBoundary picks the deepest repeated ancestor shape that
// isolates matches.
func induceRecordBoundary(elements, matched []*Node) (string, string, error) {
	// Count occurrences of every (tag, class) shape on the page.
	shapeCount := map[[2]string]int{}
	for _, el := range elements {
		shapeCount[[2]string{el.Tag, firstClass(el)}]++
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
			sh := [2]string{a.Tag, firstClass(a)}
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
	sort.Slice(keys, func(i, j int) bool { return keys[i][0]+keys[i][1] < keys[j][0]+keys[j][1] })
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

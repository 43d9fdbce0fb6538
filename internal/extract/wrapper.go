package extract

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"slices"
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
//  1. For each annotated value, find the deepest elements whose text equals
//     the value; each (tag, first class) pair observed earns a vote for the
//     annotation's attribute. The most-voted pair becomes the field rule.
//  2. The record container is the nearest common ancestor shape: among
//     ancestors of matched elements, the (tag, class) pair that (a) occurs
//     repeatedly on the page and (b) contains at most one match per
//     occurrence, preferring the deepest such pair.
//
// Pairs that tie in either step are taken in order of tag, then class. At
// least two annotations for two different records are needed to
// discriminate the record boundary from page-level containers. The page is
// read once, into a flat outline of its elements.
func InduceWrapper(page Page, annotations []Annotation) (*Wrapper, error) {
	if len(annotations) == 0 {
		return nil, fmt.Errorf("extract: wrapper induction needs at least one annotation")
	}
	o := readOutline(page.HTML)

	// Step 1: field rules by voting.
	votes := map[string]map[int]int{} // attr -> shape -> votes
	var matched []int
	for _, ann := range annotations {
		target := strings.Join(strings.Fields(ann.Value), " ")
		if target == "" {
			continue
		}
		for i := range o.deepest(target) {
			if votes[ann.Attr] == nil {
				votes[ann.Attr] = map[int]int{}
			}
			votes[ann.Attr][o.elements[i].shape]++
			matched = append(matched, i)
		}
	}
	if len(matched) == 0 {
		return nil, fmt.Errorf("extract: no annotated value found on page %s", page.URL)
	}

	var fields []FieldRule
	for attr, vs := range votes {
		best, bestN := 0, 0
		for _, sh := range o.sortShapes(slices.Collect(maps.Keys(vs))) {
			if vs[sh] > bestN {
				best, bestN = sh, vs[sh]
			}
		}
		fields = append(fields, FieldRule{Attr: attr, Tag: o.shapes[best].tag, Class: o.shapes[best].class})
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Attr < fields[j].Attr })

	// Step 2: record boundary.
	rec, err := o.recordBoundary(matched)
	if err != nil {
		return nil, err
	}
	return &Wrapper{RecordTag: o.shapes[rec].tag, RecordClass: o.shapes[rec].class, Fields: fields}, nil
}

// outline is a page as induction reads it: its elements in document order,
// each with its shape and its parent, and the text of each as a range of one
// string holding every word of the page. An element's text is its subtree's
// with white space normalised, read off as Extract's captures read theirs.
type outline struct {
	elements []outlineElement
	words    string
	// shapes are the distinct (tag, first class) pairs of the elements, in
	// order of first occurrence; count says how many elements have each.
	shapes []shape
}

type outlineElement struct {
	shape  int
	parent int // -1 for an element at the top level
	// start and end delimit the element's text in words.
	start, end int
}

type shape struct {
	tag, class string
	count      int
}

// readOutline reads a page with the tokenizer Extract uses, pairing close tags
// with open elements by the same rule.
func readOutline(src string) *outline {
	o := &outline{}
	ids := map[[2]string]int{}
	var open []int // indices of the open elements
	var buf []byte
	closeTo := func(depth int) {
		for _, i := range open[depth:] {
			el := &o.elements[i]
			if el.end = len(buf); el.start < el.end && buf[el.start] == ' ' {
				el.start++
			}
		}
		open = open[:depth]
	}
	for z := (tokenizer{src: src}); ; {
		switch t := z.next(); t.kind {
		case tokEOF:
			closeTo(0)
			o.words = string(buf)
			return o
		case tokText:
			buf = appendText(buf, t.text)
		case tokClose:
			for d := len(open) - 1; d >= 0; d-- {
				if o.shapes[o.elements[open[d]].shape].tag == t.name {
					closeTo(d)
					break
				}
			}
		case tokOpen:
			key := [2]string{t.name, firstClass(classAttr(t.attrs))}
			id, ok := ids[key]
			if !ok {
				id = len(o.shapes)
				ids[key] = id
				o.shapes = append(o.shapes, shape{tag: key[0], class: key[1]})
			}
			o.shapes[id].count++
			parent := -1
			if len(open) > 0 {
				parent = open[len(open)-1]
			}
			o.elements = append(o.elements, outlineElement{shape: id, parent: parent, start: len(buf), end: len(buf)})
			if !t.leaf {
				open = append(open, len(o.elements)-1)
			}
		}
	}
}

// text is the text of element i.
func (o *outline) text(i int) string { return o.words[o.elements[i].start:o.elements[i].end] }

// deepest yields, in document order, the elements whose text is target and
// none of whose children's is. A child with its parent's text holds every
// word the parent does, so no element opens between the two but empty ones:
// it is the next element with the text.
func (o *outline) deepest(target string) iter.Seq[int] {
	return func(yield func(int) bool) {
		last := -1
		for i := range o.elements {
			if o.text(i) != target {
				continue
			}
			if last >= 0 && o.elements[i].parent != last && !yield(last) {
				return
			}
			last = i
		}
		if last >= 0 {
			yield(last)
		}
	}
}

// sortShapes orders shapes by tag, then class, and returns them.
func (o *outline) sortShapes(ids []int) []int {
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(strings.Compare(o.shapes[a].tag, o.shapes[b].tag), strings.Compare(o.shapes[a].class, o.shapes[b].class))
	})
	return ids
}

func firstClass(class string) string {
	for f := range strings.FieldsSeq(class) {
		return f
	}
	return ""
}

// recordBoundary picks the deepest repeated ancestor shape that isolates the
// matched elements.
func (o *outline) recordBoundary(matched []int) (int, error) {
	// For each match, walk its ancestors; a candidate shape must repeat on
	// the page. Per element: how many matches it holds; per shape: the
	// depths of the ancestors that had it.
	inside := make([]int, len(o.elements))
	depthVote := make([]int, len(o.shapes))
	for _, m := range matched {
		depth := 0
		// An element named "#root" ends the walk, as the DOM reference's
		// synthetic root of that name ends its walk up the tree.
		for a := o.elements[m].parent; a >= 0 && o.shapes[o.elements[a].shape].tag != "#root"; a = o.elements[a].parent {
			depth++
			sh := o.elements[a].shape
			if o.shapes[sh].count < 2 {
				continue // not repeated: page-level container
			}
			inside[a]++
			depthVote[sh] += depth
		}
	}
	// spread counts the elements of a shape holding a match, total the
	// matches they hold.
	spread, total := make([]int, len(o.shapes)), make([]int, len(o.shapes))
	for a, n := range inside {
		if n > 0 {
			spread[o.elements[a].shape]++
			total[o.elements[a].shape] += n
		}
	}
	// score prefers shapes whose instances isolate annotations (fewest
	// matches per element), spread across more distinct elements; deeper
	// shapes (closer to the data) break ties.
	score := func(sh int) float64 {
		isolation := float64(spread[sh]) / float64(total[sh]) // 1.0 when one match per element
		avgDepth := float64(depthVote[sh]) / float64(total[sh])
		return isolation*1000 + float64(spread[sh])*10 + avgDepth
	}
	var cands []int
	for sh, n := range total {
		if n > 0 {
			cands = append(cands, sh)
		}
	}
	best := -1
	for _, sh := range o.sortShapes(cands) {
		if best < 0 || score(sh) > score(best) {
			best = sh
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("extract: could not induce a record boundary (need annotations from ≥2 records)")
	}
	return best, nil
}

// Package extract is VADA's web-data-extraction substrate, substituting for
// the DIADEM system [6] the paper uses to obtain its property sources.
//
// It contains three parts:
//
//   - a small HTML tokenizer and DOM (this file), sufficient for the
//     template-generated listing pages real estate portals serve;
//   - a deep-web site generator (sitegen.go) that renders noisy source
//     relations into per-portal HTML templates;
//   - wrapper induction (wrapper.go): from a handful of annotated example
//     values, learn per-field selectors and a record boundary, then extract
//     every listing on every page back into a relation.
//
// The pipeline interface is the same as the paper's: downstream transducers
// see noisy source relations plus extraction provenance; only the origin of
// the HTML differs (synthetic templates instead of live portals).
package extract

import (
	"strings"
	"unicode"
)

// NodeType distinguishes element and text nodes.
type NodeType int

const (
	// ElementNode is a tag node with attributes and children.
	ElementNode NodeType = iota
	// TextNode is a leaf holding character data.
	TextNode
)

// Node is a DOM node of the minimal HTML model.
type Node struct {
	// Type is the node type.
	Type NodeType
	// Tag is the lower-cased element name (element nodes only).
	Tag string
	// Attrs holds the element attributes (element nodes only).
	Attrs map[string]string
	// Text holds character data (text nodes only).
	Text string
	// Children are the child nodes in document order.
	Children []*Node
	// Parent is the parent element, nil for the root.
	Parent *Node
}

// Class returns the element's class attribute.
func (n *Node) Class() string { return n.Attrs["class"] }

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

// voidElements never have children in HTML.
var voidElements = map[string]bool{
	"br": true, "hr": true, "img": true, "input": true, "meta": true,
	"link": true, "area": true, "base": true, "col": true, "embed": true,
	"source": true, "track": true, "wbr": true,
}

// ParseHTML parses an HTML document into a DOM rooted at a synthetic
// element. The parser is tolerant: unknown constructs are skipped, stray
// close tags ignored, and unclosed tags closed at end of input — enough for
// template-generated pages (it is not a general browser-grade parser).
func ParseHTML(src string) *Node {
	root := &Node{Type: ElementNode, Tag: "#root", Attrs: map[string]string{}}
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
		name, attrs := parseTag(raw)
		if name == "" {
			continue
		}
		cur := top()
		el := &Node{Type: ElementNode, Tag: name, Attrs: attrs, Parent: cur}
		cur.Children = append(cur.Children, el)
		if !selfClose && !voidElements[name] {
			// script/style content is opaque: skip to close tag.
			if name == "script" || name == "style" {
				closeTag := "</" + name
				idx := strings.Index(strings.ToLower(src[i:]), closeTag)
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

// parseTag splits "div class='x' id=y" into name and attributes.
func parseTag(raw string) (string, map[string]string) {
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
		rest = strings.TrimLeft(rest, " \t\n\r")
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

var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'",
	"&nbsp;", " ", "&pound;", "£",
)

var escapeReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func decodeEntities(s string) string { return entityReplacer.Replace(s) }

// EscapeHTML escapes text for embedding into generated pages.
func EscapeHTML(s string) string { return escapeReplacer.Replace(s) }

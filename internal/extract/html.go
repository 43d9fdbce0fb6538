// Package extract is VADA's web-data-extraction substrate, substituting for
// the DIADEM system [6] the paper uses to obtain its property sources.
//
// It contains three parts:
//
//   - a small tolerant HTML tokenizer (this file), sufficient for the
//     template-generated listing pages real estate portals serve, which
//     induction and extraction both read pages with;
//   - a deep-web site generator (sitegen.go) that renders noisy source
//     relations into per-portal HTML templates;
//   - wrapper induction (wrapper.go): from a handful of annotated example
//     values, learn per-field selectors and a record boundary, reading the
//     sample page as a flat outline of its elements rather than a tree; and
//     extraction (extractor.go): apply them to every listing on every page
//     in one pass over the page text, without a DOM, back into a relation.
//
// The pipeline interface is the same as the paper's: downstream transducers
// see noisy source relations plus extraction provenance; only the origin of
// the HTML differs (synthetic templates instead of live portals).
package extract

import (
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokText            // a run of character data between two tags
	tokOpen            // an opening tag with a name
	tokClose           // a closing tag
)

// token is one step of the tokenizer.
type token struct {
	kind  tokenKind
	text  string // tokText: the run, raw (entities not decoded)
	name  string // tokOpen, tokClose: the element name, lower-cased
	attrs string // tokOpen: what follows the name inside the tag, raw
	// leaf says a tokOpen's element takes no children: it closed itself, is
	// a void element, or is a script or style whose content was skipped.
	leaf bool
}

// tokenizer walks a page tag by tag. It is tolerant, not browser-grade:
// comments, doctype and processing instructions are skipped, a tag without a
// name is skipped, script and style content is opaque up to its close tag,
// and input ends at the first construct that is not terminated — what
// template-generated pages need. Pairing close tags with open elements is
// the caller's: a close tag closes the innermost open element of its name
// and all inside it, a stray one nothing, and the end of input the rest.
type tokenizer struct {
	src string
	pos int
}

// next returns the next token, tokEOF when the input is exhausted.
func (z *tokenizer) next() token {
	src := z.src
	for z.pos < len(src) {
		i := z.pos
		if src[i] != '<' {
			j := strings.IndexByte(src[i:], '<')
			if j < 0 {
				j = len(src) - i
			}
			z.pos = i + j
			return token{kind: tokText, text: src[i : i+j]}
		}
		rest := src[i:]
		if strings.HasPrefix(rest, "<!--") {
			end := strings.Index(rest[4:], "-->")
			if end < 0 {
				break
			}
			z.pos = i + 4 + end + 3
			continue
		}
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			break
		}
		z.pos = i + end + 1
		switch {
		case strings.HasPrefix(rest, "<!"), strings.HasPrefix(rest, "<?"):
			continue
		case strings.HasPrefix(rest, "</"):
			return token{kind: tokClose, name: strings.ToLower(strings.TrimSpace(rest[2:end]))}
		}
		// An opening tag: "div class='x' id=y", perhaps self-closed.
		raw := strings.TrimSpace(strings.TrimSuffix(rest[1:end], "/"))
		n := 0
		for n < len(raw) && !isTagSpace(raw[n]) {
			n++
		}
		name := strings.ToLower(raw[:n])
		if name == "" {
			continue
		}
		t := token{kind: tokOpen, name: name, attrs: raw[n:], leaf: rest[end-1] == '/' || voidElements[name]}
		if !t.leaf && (name == "script" || name == "style") {
			t.leaf = true
			z.pos = skipOpaque(src, z.pos, name)
		}
		return t
	}
	z.pos = len(src)
	return token{kind: tokEOF}
}

// skipOpaque returns the position after the close tag of the script or style
// element whose content starts at from, len(src) when it is not closed. The
// close tag is searched in place, ASCII letters folded: lower-casing the rest
// of the document per element, as this once did, copies a page with k inline
// scripts k times.
func skipOpaque(src string, from int, name string) int {
	for i := from; ; i++ {
		j := strings.Index(src[i:], "</")
		if j < 0 {
			return len(src)
		}
		i += j
		if !hasPrefixFold(src[i+2:], name) {
			continue
		}
		gt := strings.IndexByte(src[i:], '>')
		if gt < 0 {
			return len(src)
		}
		return i + gt + 1
	}
}

// hasPrefixFold reports whether s starts with the lower-case ASCII prefix in
// any case. Between strings of one length, one of them ASCII, EqualFold folds
// ASCII letters only: a letter that folds from outside ASCII is longer.
func hasPrefixFold(s, prefix string) bool {
	return len(s) >= len(prefix) && strings.EqualFold(s[:len(prefix)], prefix)
}

// voidElements never have children in HTML.
var voidElements = map[string]bool{
	"br": true, "hr": true, "img": true, "input": true, "meta": true,
	"link": true, "area": true, "base": true, "col": true, "embed": true,
	"source": true, "track": true, "wbr": true,
}

// isTagSpace reports whether byte c separates the parts of a tag: what
// unicode.IsSpace says of the byte taken as a rune. Tags are split bytewise.
func isTagSpace(c byte) bool { return tagSpace[c] }

var tagSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true, 0x85: true, 0xa0: true}

// classAttr returns the value of the class attribute in a tag's raw
// attribute text, entities decoded: the last one if it is given twice, ""
// if it is absent or bare. Values may be quoted with either quote or bare.
func classAttr(attrs string) string {
	class := ""
	for rest := attrs; ; {
		for rest != "" && isTagSpace(rest[0]) {
			rest = rest[1:]
		}
		if rest == "" {
			return class
		}
		j := 0
		for j < len(rest) && rest[j] != '=' && !isTagSpace(rest[j]) {
			j++
		}
		isClass := j == len("class") && hasPrefixFold(rest, "class")
		val := ""
		if rest = rest[j:]; rest != "" && rest[0] == '=' {
			rest = rest[1:]
			if rest != "" && (rest[0] == '"' || rest[0] == '\'') {
				if endQ := strings.IndexByte(rest[1:], rest[0]); endQ < 0 {
					val, rest = rest[1:], ""
				} else {
					val, rest = rest[1:1+endQ], rest[endQ+2:]
				}
			} else {
				k := 0
				for k < len(rest) && !isTagSpace(rest[k]) {
					k++
				}
				val, rest = rest[:k], rest[k:]
			}
		}
		if isClass {
			class = decodeEntities(val)
		}
	}
}

// hasClass reports whether the space-separated class list contains c. Most
// lists are one class, or do not hold c at all: both are answered before the
// list is split.
func hasClass(list, c string) bool {
	if list == c {
		return c != "" && !strings.ContainsFunc(c, unicode.IsSpace)
	}
	if !strings.Contains(list, c) {
		return false
	}
	for f := range strings.FieldsSeq(list) {
		if f == c {
			return true
		}
	}
	return false
}

// appendText appends the words of a raw text run to buf, entities decoded,
// each word preceded by one space unless buf is empty: a subtree's text with
// white space normalised is what was appended while it was open, less the
// leading space.
func appendText(buf []byte, raw string) []byte {
	for word := range strings.FieldsSeq(decodeEntities(raw)) {
		if len(buf) > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, word...)
	}
	return buf
}

var entityReplacer = strings.NewReplacer(
	"&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'",
	"&nbsp;", " ", "&pound;", "£",
)

// decodeEntities replaces the entities portals use. Text without one comes
// back as it is: the replacer would copy it.
func decodeEntities(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	return entityReplacer.Replace(s)
}

// appendEscapedHTML appends s escaped for embedding into generated pages: &,
// <, > and " become entities, every other byte is copied.
func appendEscapedHTML(b []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, `&<>"`)
		if i < 0 {
			return append(b, s...)
		}
		b = append(b, s[:i]...)
		switch s[i] {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		default:
			b = append(b, "&quot;"...)
		}
		s = s[i+1:]
	}
}

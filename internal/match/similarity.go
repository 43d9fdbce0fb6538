// Package match implements VADA's matching activity (Table 1 of the paper):
// schema matching by name similarity and instance matching against
// data-context instances, combined into scored attribute correspondences
// that mapping generation consumes.
package match

import (
	"cmp"
	"slices"
	"strings"
	"unicode"
)

// Tokens splits an identifier into lower-case tokens at underscores, dashes,
// spaces, dots and camelCase boundaries, expanding common abbreviations
// (num→number, pc→postcode, desc→description, beds→bedrooms, addr→address).
func Tokens(s string) []string {
	var raw []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			raw = append(raw, strings.ToLower(b.String()))
			b.Reset()
		}
	}
	prevLower := false
	for _, r := range s {
		switch {
		case r == '_' || r == '-' || r == ' ' || r == '.' || r == '/':
			flush()
		case unicode.IsUpper(r) && prevLower:
			flush()
			b.WriteRune(r)
		default:
			b.WriteRune(r)
		}
		prevLower = unicode.IsLower(r) || unicode.IsDigit(r)
	}
	flush()
	for i, t := range raw {
		if e, ok := abbreviations[t]; ok {
			raw[i] = e
		}
	}
	return raw
}

// abbreviations are the tokens Tokens expands.
var abbreviations = map[string]string{
	"num": "number", "no": "number", "pc": "postcode", "desc": "description",
	"beds": "bedrooms", "bed": "bedrooms", "addr": "address", "qty": "quantity",
}

// preparedName is an attribute name prepared for the schema matcher:
// everything the name similarity reads of one name, computed once however
// many names it is scored against.
type preparedName struct {
	// norm is the name's tokens joined by single spaces, runes its runes.
	norm  string
	runes []rune
	// bigrams are the distinct bigrams of runes with their counts, sorted.
	bigrams []bigram
	// tokens are the distinct tokens, sorted.
	tokens []string
}

type bigram struct {
	a, b rune
	n    int
}

func prepareName(s string) preparedName {
	tokens := Tokens(s)
	norm := strings.Join(tokens, " ")
	n := preparedName{norm: norm, runes: []rune(norm)}
	if len(n.runes) > 1 {
		n.bigrams = make([]bigram, 0, len(n.runes)-1)
		for i := 0; i+1 < len(n.runes); i++ {
			n.bigrams = append(n.bigrams, bigram{a: n.runes[i], b: n.runes[i+1], n: 1})
		}
		slices.SortFunc(n.bigrams, compareBigrams)
		distinct := n.bigrams[:0]
		for _, g := range n.bigrams {
			if k := len(distinct) - 1; k >= 0 && compareBigrams(distinct[k], g) == 0 {
				distinct[k].n++
				continue
			}
			distinct = append(distinct, g)
		}
		n.bigrams = distinct
	}
	slices.Sort(tokens)
	n.tokens = slices.Compact(tokens)
	return n
}

func compareBigrams(x, y bigram) int { return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b)) }

// similarity is the ensemble name similarity of the schema matcher: the
// maximum of Jaro-Winkler and bigram Dice over normalised names and Jaccard
// over their token sets, with a containment bonus. It allocates nothing for
// names of up to 64 runes.
func (x *preparedName) similarity(y *preparedName) float64 {
	if x.norm == y.norm {
		return 1
	}
	s := jaroWinkler(x.runes, y.runes)
	if d := dice(x.bigrams, y.bigrams); d > s {
		s = d
	}
	if j := jaccard(x.tokens, y.tokens); j > s {
		s = j
	}
	// Containment: "price" ⊂ "asking price".
	if x.norm != "" && y.norm != "" && (strings.Contains(x.norm, y.norm) || strings.Contains(y.norm, x.norm)) {
		if s < 0.85 {
			s = 0.85
		}
	}
	return s
}

// jaroWinkler is the Jaro similarity of two rune strings, boosted for a
// shared prefix of up to 4 runes.
func jaroWinkler(ra, rb []rune) float64 {
	j := jaro(ra, rb)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func jaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	var bufA, bufB [64]bool
	matchA, matchB := bufA[:], bufB[:]
	if la > len(bufA) {
		matchA = make([]bool, la)
	}
	if lb > len(bufB) {
		matchB = make([]bool, lb)
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := max(i-window, 0)
		hi := min(i+window+1, lb)
		for j := lo; j < hi; j++ {
			if matchB[j] || ra[i] != rb[j] {
				continue
			}
			matchA[i], matchB[j] = true, true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(transpositions)/2)/m) / 3
}

// dice is the Sørensen–Dice coefficient of two bigram multisets.
func dice(ba, bb []bigram) float64 {
	if len(ba) == 0 && len(bb) == 0 {
		return 1
	}
	inter, total := 0, 0
	for _, g := range ba {
		total += g.n
	}
	for _, g := range bb {
		total += g.n
	}
	for i, j := 0, 0; i < len(ba) && j < len(bb); {
		switch c := compareBigrams(ba[i], bb[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter += min(ba[i].n, bb[j].n)
			i++
			j++
		}
	}
	if total == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(total)
}

// jaccard is the Jaccard similarity of two sorted token sets.
func jaccard(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(ta) && j < len(tb); {
		switch c := strings.Compare(ta[i], tb[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(ta) + len(tb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

package match

// The name similarity as it was before MatchSchemas prepared each name once:
// every function re-normalises, re-tokenises and re-bigrams both names per
// call. NameSimilarity is the oracle TestSchemaMatchingDifferential and
// FuzzNameSimilarity hold the prepared scorer to, bit for bit; the others are
// its parts.

import "strings"

// Jaro returns the Jaro similarity of two strings.
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
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

// JaroWinkler boosts Jaro similarity for shared prefixes (up to 4 runes).
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// Bigrams returns the multiset of character bigrams of s as a count map.
func Bigrams(s string) map[string]int {
	out := map[string]int{}
	r := []rune(s)
	for i := 0; i+1 < len(r); i++ {
		out[string(r[i:i+2])]++
	}
	return out
}

// DiceBigram returns the Sørensen–Dice coefficient over character bigrams.
func DiceBigram(a, b string) float64 {
	ba, bb := Bigrams(a), Bigrams(b)
	if len(ba) == 0 && len(bb) == 0 {
		return 1
	}
	inter, total := 0, 0
	for g, ca := range ba {
		total += ca
		if cb, ok := bb[g]; ok {
			if ca < cb {
				inter += ca
			} else {
				inter += cb
			}
		}
	}
	for _, cb := range bb {
		total += cb
	}
	if total == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(total)
}

// TokenJaccard returns the Jaccard similarity of the token sets of two
// identifiers after Normalize.
func TokenJaccard(a, b string) float64 {
	ta, tb := tokenSet(a), tokenSet(b)
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := 0
	for t := range ta {
		if tb[t] {
			inter++
		}
	}
	union := len(ta) + len(tb) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func tokenSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, t := range Tokens(s) {
		out[t] = true
	}
	return out
}

// Normalize lower-cases an identifier and joins its tokens, so
// "asking_price" and "AskingPrice" normalise identically.
func Normalize(s string) string { return strings.Join(Tokens(s), " ") }

// NameSimilarity is the ensemble name similarity used by the schema
// matcher: the maximum of Jaro-Winkler, bigram Dice and token Jaccard over
// normalised names, with a containment bonus.
func NameSimilarity(a, b string) float64 {
	na, nb := Normalize(a), Normalize(b)
	if na == nb {
		return 1
	}
	s := JaroWinkler(na, nb)
	if d := DiceBigram(na, nb); d > s {
		s = d
	}
	if j := TokenJaccard(a, b); j > s {
		s = j
	}
	// Containment: "price" ⊂ "asking price".
	if na != "" && nb != "" && (strings.Contains(na, nb) || strings.Contains(nb, na)) {
		if s < 0.85 {
			s = 0.85
		}
	}
	return s
}

package match

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"vada/internal/relation"
)

// InstanceSample caps how many distinct values per attribute the instance
// matcher considers.
const InstanceSample = 500

// InstanceProfiles are target-attribute instances profiled for matching:
// what the matcher compares is a property of each column alone, so it is
// computed once per column however many source attributes the column is held
// against. Instance matching scores source attribute values against target
// attribute instances (from data-context reference, master or example data —
// Table 1, row "Instance Matching"), combining distinct-value overlap,
// value-shape distribution similarity and numeric-range overlap.
type InstanceProfiles struct {
	// targets are the target attributes with at least one usable value,
	// sorted by name.
	targets []targetProfile
}

type targetProfile struct {
	attr    string
	profile *columnProfile
}

// ProfileInstances profiles the attributes of the data-context relations as
// target instances, each attribute under its own name. An attribute several
// relations have is profiled over their columns one after the other, in the
// order given. The relations are read through their folded column views
// (relation.Folded), so they must be frozen.
func ProfileInstances(refs ...*relation.Relation) *InstanceProfiles {
	cols := map[string][]*relation.Folded{}
	for _, r := range refs {
		for _, a := range r.Schema.AttrNames() {
			// A name twice in one schema is its first column twice: once is
			// the same sample.
			if f := r.Folded(r.Schema.AttrIndex(a)); !slices.Contains(cols[a], f) {
				cols[a] = append(cols[a], f)
			}
		}
	}
	p := &InstanceProfiles{}
	for _, ta := range slices.Sorted(maps.Keys(cols)) {
		if tp := profileColumns(cols[ta]); tp != nil {
			p.targets = append(p.targets, targetProfile{ta, tp})
		}
	}
	return p
}

// Match scores every attribute of src against every profiled target
// attribute, source attributes in schema order, target attributes sorted.
// src is read through its folded column views, so it must be frozen.
func (p *InstanceProfiles) Match(src *relation.Relation) []Match {
	var out []Match
	for _, sa := range src.Schema.Attrs {
		sp := profileColumns([]*relation.Folded{src.Folded(src.Schema.AttrIndex(sa.Name))})
		if sp == nil {
			continue
		}
		for _, t := range p.targets {
			out = append(out, Match{
				SourceRel: src.Schema.Name, SourceAttr: sa.Name, TargetAttr: t.attr,
				Score: instanceSimilarity(sp, t.profile), Method: "instance",
			})
		}
	}
	return out
}

// columnProfile is what the instance matcher knows about one column.
type columnProfile struct {
	// values are the first InstanceSample distinct folded (trimmed,
	// lower-cased), non-empty values in tuple order. index holds each of them
	// at a code no greater than last, and no other value at such a code.
	values []string
	index  map[string]int32
	last   int32
	// shapes is the share of values per character-class shape, sorted by
	// shape so that every sum over it has one order; shapeNorm is the
	// Euclidean norm of the shares.
	shapes    []shapeShare
	shapeNorm float64
	// lo, hi and numeric are numericStats of values.
	lo, hi, numeric float64
}

type shapeShare struct {
	shape string
	share float64
}

// has reports whether v, which is not "", is among the profile's values.
func (p *columnProfile) has(v string) bool {
	c, ok := p.index[v]
	return ok && c <= p.last
}

// profileColumns profiles the column the folded columns make one after the
// other; nil when it has no usable value. One column's sample is read from
// its view: the view's first distinct values are the sample.
func profileColumns(cols []*relation.Folded) *columnProfile {
	p := &columnProfile{}
	if len(cols) == 1 {
		p.values, p.last = cols[0].Head(InstanceSample)
		p.index = cols[0].Index
	} else {
		p.index = map[string]int32{}
	sample:
		for _, f := range cols {
			for _, v := range f.Values {
				if _, seen := p.index[v]; seen || v == "" {
					continue
				}
				if len(p.values) == InstanceSample {
					break sample
				}
				p.index[v] = int32(len(p.values))
				p.values = append(p.values, v)
			}
		}
		p.last = int32(len(p.values)) - 1
	}
	if len(p.values) == 0 {
		return nil
	}

	at := map[string]int{} // shape -> position in p.shapes
	var buf []byte
	for _, v := range p.values {
		buf = appendShape(buf[:0], v)
		i, ok := at[string(buf)]
		if !ok {
			i = len(p.shapes)
			p.shapes = append(p.shapes, shapeShare{shape: string(buf)})
			at[p.shapes[i].shape] = i
		}
		p.shapes[i].share++
	}
	sort.Slice(p.shapes, func(i, j int) bool { return p.shapes[i].shape < p.shapes[j].shape })
	norm2 := 0.0
	for i := range p.shapes {
		p.shapes[i].share /= float64(len(p.values))
		norm2 += p.shapes[i].share * p.shapes[i].share
	}
	p.shapeNorm = sqrt(norm2)

	p.lo, p.hi, p.numeric = numericStats(p.values)
	return p
}

// instanceSimilarity blends three signals over two column profiles.
func instanceSimilarity(a, b *columnProfile) float64 {
	overlap := valueJaccard(a, b)
	shape := shapeSimilarity(a, b)
	numeric := numericRangeOverlap(a, b)
	// Overlap is the strongest evidence; shape separates postcodes from
	// streets; numeric range separates prices from bedroom counts.
	score := 0.6*overlap + 0.25*shape + 0.15*numeric
	if overlap > 0.5 { // strong extensional evidence dominates
		score = 0.85 + 0.15*overlap
	}
	return clamp01(score)
}

// valueJaccard is |a ∩ b| / |a ∪ b| over the sampled distinct values,
// counted by probing the smaller sample into the larger one's set.
func valueJaccard(a, b *columnProfile) float64 {
	if len(a.values) > len(b.values) {
		a, b = b, a
	}
	inter := 0
	for _, v := range a.values {
		if b.has(v) {
			inter++
		}
	}
	return float64(inter) / float64(len(a.values)+len(b.values)-inter)
}

// appendShape appends s's character-class pattern to dst, runs collapsed so
// that "123" and "57" share the shape "9": "M1 1AA" -> "A9 9A".
func appendShape(dst []byte, s string) []byte {
	var prev rune
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			r = '9'
		case r >= 'a' && r <= 'z':
			r = 'a'
		case r >= 'A' && r <= 'Z':
			r = 'A'
		}
		if r != prev {
			dst = utf8.AppendRune(dst, r)
			prev = r
		}
	}
	return dst
}

// shapeSimilarity is the cosine of the two shape distributions, the dot
// product taken over the shapes both have, in sorted order.
func shapeSimilarity(a, b *columnProfile) float64 {
	if a.shapeNorm == 0 || b.shapeNorm == 0 {
		return 0
	}
	dot := 0.0
	for i, j := 0, 0; i < len(a.shapes) && j < len(b.shapes); {
		switch sa, sb := a.shapes[i], b.shapes[j]; {
		case sa.shape < sb.shape:
			i++
		case sa.shape > sb.shape:
			j++
		default:
			dot += sa.share * sb.share
			i++
			j++
		}
	}
	return dot / (a.shapeNorm * b.shapeNorm)
}

// numericRangeOverlap is the share of the two numeric ranges' union that
// their intersection covers, for columns that are mostly numeric. The
// comparisons are written out, not min/max: a street called "Nan Close"
// parses as NaN, and the two treat NaN differently.
func numericRangeOverlap(a, b *columnProfile) float64 {
	if a.numeric < 0.8 || b.numeric < 0.8 {
		return 0
	}
	lo := a.lo
	if b.lo > lo {
		lo = b.lo
	}
	hi := a.hi
	if b.hi < hi {
		hi = b.hi
	}
	if hi <= lo {
		return 0
	}
	span := a.hi
	if b.hi > span {
		span = b.hi
	}
	floor := a.lo
	if b.lo < floor {
		floor = b.lo
	}
	if span == floor {
		return 1
	}
	return (hi - lo) / (span - floor)
}

// numericStats gives the range of the values that parse as numbers and the
// share that do. "£1,200" parses; so does anything with a numeric prefix,
// "12 high street" included.
func numericStats(vals []string) (lo, hi float64, frac float64) {
	n := 0
	for _, v := range vals {
		f, ok := numericPrefix(strings.ReplaceAll(strings.TrimPrefix(v, "£"), ",", ""))
		if !ok {
			continue
		}
		if n == 0 || f < lo {
			lo = f
		}
		if n == 0 || f > hi {
			hi = f
		}
		n++
	}
	if len(vals) == 0 {
		return 0, 0, 0
	}
	return lo, hi, float64(n) / float64(len(vals))
}

// numericPrefix parses the number s starts with, exactly as the
// fmt.Sscanf(s, "%f") it replaces did — the numbers end up in scores compared
// as bit patterns: leading white space is skipped (a newline in it is an
// error), the longest prefix shaped like a float is taken — "nan", or a sign
// and then "inf" or digits, point, digits, exponent, decimal or after "0x"
// hexadecimal, underscores among the digits — and must parse; what follows is
// ignored. Out of range is an error, not an infinity.
func numericPrefix(s string) (float64, bool) {
	s = strings.TrimLeftFunc(s, func(r rune) bool { return r != '\n' && unicode.IsSpace(r) })
	i := 0
	accept := func(set string) bool {
		if i < len(s) && strings.IndexByte(set, s[i]) >= 0 {
			i++
			return true
		}
		return false
	}
	if accept("nN") {
		if !accept("aA") || !accept("nN") {
			return 0, false
		}
	} else if accept("+-"); accept("iI") { // the sign is optional
		if !accept("nN") || !accept("fF") {
			return 0, false
		}
	} else {
		digits, exponent := "0123456789_", "eEpP"
		if accept("0") && accept("xX") {
			digits, exponent = "0123456789aAbBcCdDeEfF_", "pP"
		}
		for accept(digits) {
		}
		if accept(".") {
			for accept(digits) {
			}
		}
		if accept(exponent) {
			accept("+-")
			for accept("0123456789_") {
			}
		}
	}
	tok := s[:i]
	if tok == "" {
		return 0, false
	}
	// Sscanf's own extension: a decimal mantissa with a binary exponent.
	if p := strings.IndexByte(tok, 'p'); p >= 0 && !strings.ContainsAny(tok, "xX") {
		f, err := strconv.ParseFloat(tok[:p], 64)
		m, err2 := strconv.Atoi(tok[p+1:])
		return math.Ldexp(f, m), err == nil && err2 == nil
	}
	f, err := strconv.ParseFloat(tok, 64)
	return f, err == nil
}

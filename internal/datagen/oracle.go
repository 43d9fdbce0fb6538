package datagen

import (
	"encoding/binary"
	"slices"
	"strings"

	"vada/internal/relation"
)

// Oracle answers ground-truth questions about the generated scenario. It
// stands in for the human user of the demonstration: experiments use it to
// produce feedback annotations and to score results, exactly as the paper's
// demo relied on the audience recognising wrong bedroom counts.
type Oracle struct {
	rows   []oracleRow
	byAddr map[string]int32 // an address's key (appendAddrKey) → its row
}

type oracleRow struct {
	ptype     string
	desc      string
	street    string
	city      string
	postcode  string
	bedrooms  int
	price     float64
	crimerank int
}

// appendAddrKey appends the lookup key of a (street, postcode) pair: the
// length of the trimmed, lower-cased street, that street, and the canonical
// postcode. It is robust to the generator's case and spacing noise (but not
// to typos; typo'd streets are genuinely unresolvable without repair, as in
// reality), and the length keeps the two parts apart.
func appendAddrKey(dst []byte, street, postcode string) []byte {
	s := strings.TrimSpace(street)
	if isASCII(s) {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = appendLowerASCII(dst, s)
	} else {
		l := strings.ToLower(s)
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		dst = append(dst, l...)
	}
	return appendCanonicalPostcode(dst, postcode)
}

// newOracle indexes the properties, which are at distinct addresses.
func newOracle(props []property) *Oracle {
	o := &Oracle{rows: make([]oracleRow, len(props)), byAddr: make(map[string]int32, len(props))}
	var buf []byte
	for i, p := range props {
		o.rows[i] = oracleRow{
			ptype: p.ptype, desc: p.desc, street: p.street, city: p.city,
			postcode: p.postcode, bedrooms: p.bedrooms, price: p.price,
			crimerank: p.crimerank,
		}
		buf = appendAddrKey(buf[:0], p.street, p.postcode)
		o.byAddr[string(buf)] = int32(i)
	}
	return o
}

// resolve finds the row of the property at an address.
func (o *Oracle) resolve(street, postcode string) (row int, ok bool) {
	var buf [64]byte
	i, ok := o.byAddr[string(appendAddrKey(buf[:0], street, postcode))]
	return int(i), ok
}

// Size returns the number of ground-truth properties.
func (o *Oracle) Size() int { return len(o.byAddr) }

// oracleAttrs are the attributes the oracle knows a true value of. An
// attribute is its index here, which the constants below name.
var oracleAttrs = []string{"type", "description", "street", "city", "postcode", "bedrooms", "price", "crimerank"}

const (
	attrType = iota
	attrDescription
	attrStreet
	attrCity
	attrPostcode
	attrBedrooms
	attrPrice
	attrCrimerank
)

// value is the row's true value of a known attribute.
func (row *oracleRow) value(attr int) relation.Value {
	switch attr {
	case attrType:
		return relation.String(row.ptype)
	case attrDescription:
		return relation.String(row.desc)
	case attrStreet:
		return relation.String(row.street)
	case attrCity:
		return relation.String(row.city)
	case attrPostcode:
		return relation.String(row.postcode)
	case attrBedrooms:
		return relation.Int(int64(row.bedrooms))
	case attrPrice:
		return relation.Float(row.price)
	default:
		return relation.Int(int64(row.crimerank))
	}
}

// CellCorrect checks a result cell against ground truth; known is false
// when the address does not identify a real property (e.g. typo'd street),
// and then correct is false too. Unknown attributes and null cells are not
// correct. Values are compared after canonicalisation (postcode spacing,
// type synonyms, price formats).
func (o *Oracle) CellCorrect(street, postcode, attr string, v relation.Value) (correct, known bool) {
	i, known := o.resolve(street, postcode)
	if !known {
		return false, false
	}
	return o.rows[i].correct(slices.Index(oracleAttrs, attr), v), true
}

// correct is CellCorrect for the row an address resolved to.
func (row *oracleRow) correct(attr int, v relation.Value) bool {
	if attr < 0 || v.IsNull() {
		return false
	}
	switch attr {
	case attrPostcode:
		var buf [16]byte
		return string(appendCanonicalPostcode(buf[:0], v.String())) == row.postcode
	case attrType:
		return CanonicalType(v.String()) == row.ptype
	case attrPrice:
		f, ok := ParsePrice(v)
		return ok && f == row.price
	case attrStreet:
		return strings.EqualFold(strings.TrimSpace(v.String()), row.street)
	}
	want := row.value(attr)
	if cv, ok := relation.Coerce(v, want.Kind()); ok {
		return cv.Equal(want)
	}
	return v.Equal(want)
}

// Score measures a target-shaped result relation against the ground truth.
type Score struct {
	// Rows is the number of result tuples.
	Rows int
	// AddressablePrecision is the fraction of result tuples whose
	// (street, postcode) identifies a real property.
	AddressablePrecision float64
	// Recall is the fraction of ground-truth properties represented by at
	// least one addressable result tuple.
	Recall float64
	// F1 combines AddressablePrecision and Recall.
	F1 float64
	// CellAccuracy is the fraction of correct cells among addressable
	// tuples over the scored attributes; null cells count as incorrect
	// (they conflate correctness with completeness — see ValueAccuracy).
	CellAccuracy float64
	// ValueAccuracy is the fraction of correct cells among the *non-null*
	// cells of addressable tuples: pure correctness of what is asserted.
	ValueAccuracy float64
	// Completeness maps each scored attribute to its non-null fraction.
	Completeness map[string]float64
}

// ScoredAttributes are the target attributes the oracle scores cell-wise.
var ScoredAttributes = []string{"type", "street", "postcode", "bedrooms", "price", "crimerank"}

// ScoreResult compares a result relation (any schema containing street and
// postcode) against the ground truth.
func (o *Oracle) ScoreResult(res *relation.Relation) Score {
	s := Score{Rows: res.Cardinality(), Completeness: map[string]float64{}}
	si := res.Schema.AttrIndex("street")
	pi := res.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 || res.Cardinality() == 0 {
		return s
	}
	// Each scored attribute's column in res (-1 when it has none), its
	// index among the oracle's attributes, and its non-null cells.
	type scored struct{ col, attr, nonNull int }
	attrs := make([]scored, len(ScoredAttributes))
	for i, name := range ScoredAttributes {
		attrs[i] = scored{col: res.Schema.AttrIndex(name), attr: slices.Index(oracleAttrs, name)}
	}
	found := make([]bool, len(o.rows))
	recalled, addressable := 0, 0
	cellsTotal, cellsRight := 0, 0
	valueTotal, valueRight := 0, 0

	// Each row is resolved once, and its cells compared with the true row.
	for _, t := range res.Tuples {
		ri, known := o.resolve(t[si].String(), t[pi].String())
		var row *oracleRow
		if known {
			addressable++
			if !found[ri] {
				found[ri] = true
				recalled++
			}
			row = &o.rows[ri]
		}
		for i := range attrs {
			a := &attrs[i]
			if a.col < 0 {
				continue
			}
			v := t[a.col]
			if !v.IsNull() {
				a.nonNull++
			}
			if known {
				cellsTotal++
				correct := row.correct(a.attr, v)
				if correct {
					cellsRight++
				}
				if !v.IsNull() {
					valueTotal++
					if correct {
						valueRight++
					}
				}
			}
		}
	}
	s.AddressablePrecision = float64(addressable) / float64(res.Cardinality())
	s.Recall = float64(recalled) / float64(len(o.byAddr))
	if s.AddressablePrecision+s.Recall > 0 {
		s.F1 = 2 * s.AddressablePrecision * s.Recall / (s.AddressablePrecision + s.Recall)
	}
	if cellsTotal > 0 {
		s.CellAccuracy = float64(cellsRight) / float64(cellsTotal)
	}
	if valueTotal > 0 {
		s.ValueAccuracy = float64(valueRight) / float64(valueTotal)
	}
	// Every row has a cell in each attribute res has.
	for i, a := range attrs {
		if a.col >= 0 {
			s.Completeness[ScoredAttributes[i]] = float64(a.nonNull) / float64(res.Cardinality())
		}
	}
	return s
}

package datagen

import (
	"strings"

	"vada/internal/relation"
)

// Oracle answers ground-truth questions about the generated scenario. It
// stands in for the human user of the demonstration: experiments use it to
// produce feedback annotations and to score results, exactly as the paper's
// demo relied on the audience recognising wrong bedroom counts.
type Oracle struct {
	byAddr map[addr]oracleRow
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

// addr is a (street, postcode) lookup key robust to the generator's case and
// spacing noise (but not to typos; typo'd streets are genuinely unresolvable
// without repair, as in reality). Its parts are compared apart.
type addr struct{ street, postcode string }

// addrKey canonicalises a street and a postcode into their addr.
func addrKey(street, postcode string) addr {
	return addr{strings.ToLower(strings.TrimSpace(street)), CanonicalPostcode(postcode)}
}

func newOracle(props []property) *Oracle {
	o := &Oracle{byAddr: make(map[addr]oracleRow, len(props))}
	for _, p := range props {
		o.byAddr[addrKey(p.street, p.postcode)] = oracleRow{
			ptype: p.ptype, desc: p.desc, street: p.street, city: p.city,
			postcode: p.postcode, bedrooms: p.bedrooms, price: p.price,
			crimerank: p.crimerank,
		}
	}
	return o
}

// Size returns the number of ground-truth properties.
func (o *Oracle) Size() int { return len(o.byAddr) }

// oracleAttrs are the attributes the oracle knows a true value of.
var oracleAttrs = []string{"type", "description", "street", "city", "postcode", "bedrooms", "price", "crimerank"}

// value is the row's true value of attr; ok is false for an attribute the
// oracle does not know.
func (row oracleRow) value(attr string) (v relation.Value, ok bool) {
	switch attr {
	case "type":
		return relation.String(row.ptype), true
	case "description":
		return relation.String(row.desc), true
	case "street":
		return relation.String(row.street), true
	case "city":
		return relation.String(row.city), true
	case "postcode":
		return relation.String(row.postcode), true
	case "bedrooms":
		return relation.Int(int64(row.bedrooms)), true
	case "price":
		return relation.Float(row.price), true
	case "crimerank":
		return relation.Int(int64(row.crimerank)), true
	}
	return relation.Value{}, false
}

// Lookup finds the ground-truth values for an address. ok is false when the
// address does not identify a real property (e.g. typo'd street).
func (o *Oracle) Lookup(street, postcode string) (map[string]relation.Value, bool) {
	row, ok := o.byAddr[addrKey(street, postcode)]
	if !ok {
		return nil, false
	}
	truth := make(map[string]relation.Value, len(oracleAttrs))
	for _, attr := range oracleAttrs {
		truth[attr], _ = row.value(attr)
	}
	return truth, true
}

// CellCorrect checks a result cell against ground truth. Unknown addresses
// and unknown attributes report false. Values are compared after
// canonicalisation (postcode spacing, type synonyms, price formats).
func (o *Oracle) CellCorrect(street, postcode, attr string, v relation.Value) bool {
	row, ok := o.byAddr[addrKey(street, postcode)]
	return ok && row.correct(attr, v)
}

// correct is CellCorrect for the row an address resolved to.
func (row oracleRow) correct(attr string, v relation.Value) bool {
	want, ok := row.value(attr)
	if !ok || v.IsNull() {
		return false
	}
	switch attr {
	case "postcode":
		return CanonicalPostcode(v.String()) == want.Str()
	case "type":
		return CanonicalType(v.String()) == want.Str()
	case "price":
		f, ok := ParsePrice(v)
		return ok && f == want.FloatVal()
	case "street":
		return strings.EqualFold(strings.TrimSpace(v.String()), want.Str())
	default:
		if cv, ok := relation.Coerce(v, want.Kind()); ok {
			return cv.Equal(want)
		}
		return v.Equal(want)
	}
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
	found := map[addr]bool{}
	addressable := 0
	cellsTotal, cellsRight := 0, 0
	valueTotal, valueRight := 0, 0
	nonNull := map[string]int{}
	present := map[string]int{}

	// Each row is resolved once, and its cells compared with the true row.
	cols := make([]int, len(ScoredAttributes))
	for i, attr := range ScoredAttributes {
		cols[i] = res.Schema.AttrIndex(attr)
	}
	for _, t := range res.Tuples {
		key := addrKey(t[si].String(), t[pi].String())
		row, known := o.byAddr[key]
		if known {
			addressable++
			found[key] = true
		}
		for i, attr := range ScoredAttributes {
			ai := cols[i]
			if ai < 0 {
				continue
			}
			present[attr]++
			if !t[ai].IsNull() {
				nonNull[attr]++
			}
			if known {
				cellsTotal++
				correct := row.correct(attr, t[ai])
				if correct {
					cellsRight++
				}
				if !t[ai].IsNull() {
					valueTotal++
					if correct {
						valueRight++
					}
				}
			}
		}
	}
	s.AddressablePrecision = float64(addressable) / float64(res.Cardinality())
	s.Recall = float64(len(found)) / float64(len(o.byAddr))
	if s.AddressablePrecision+s.Recall > 0 {
		s.F1 = 2 * s.AddressablePrecision * s.Recall / (s.AddressablePrecision + s.Recall)
	}
	if cellsTotal > 0 {
		s.CellAccuracy = float64(cellsRight) / float64(cellsTotal)
	}
	if valueTotal > 0 {
		s.ValueAccuracy = float64(valueRight) / float64(valueTotal)
	}
	for attr, n := range present {
		if n > 0 {
			s.Completeness[attr] = float64(nonNull[attr]) / float64(n)
		}
	}
	return s
}

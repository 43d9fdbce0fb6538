package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"vada/internal/relation"
)

// This file keeps the scenario layer as it was written first, with fmt,
// interface-boxed tuples, string-keyed maps and a per-call synonym walk: the
// reference that Generate, the canonicalisers and the Oracle are held to
// byte for byte (TestGenerateDifferential, FuzzGenerateDifferential,
// FuzzScenarioCanonicalDifferential).

// GenerateReference is the reference Generate. It returns the scenario (its
// Oracle is left nil) and the reference oracle over the same properties.
func GenerateReference(cfg Config) (*Scenario, *ReferenceOracle) {
	rng := rand.New(rand.NewSource(cfg.Seed))

	postcodes := make([]string, 0, cfg.NPostcodes)
	pcCity := make(map[string]string, cfg.NPostcodes)
	pcCrime := make(map[string]int, cfg.NPostcodes)
	seenPC := map[string]bool{}
	for len(postcodes) < cfg.NPostcodes {
		city := cities[rng.Intn(len(cities))]
		area := refCityAreas[city]
		pc := fmt.Sprintf("%s%d %d%c%c", area, 1+rng.Intn(30), 1+rng.Intn(9),
			'A'+rune(rng.Intn(26)), 'A'+rune(rng.Intn(26)))
		if seenPC[pc] {
			continue
		}
		seenPC[pc] = true
		postcodes = append(postcodes, pc)
		pcCity[pc] = city
		pcCrime[pc] = 1 + rng.Intn(32000)
	}

	props := make([]property, 0, cfg.NProperties)
	seenAddr := map[string]bool{}
	for len(props) < cfg.NProperties {
		pc := postcodes[rng.Intn(len(postcodes))]
		street := fmt.Sprintf("%d %s %s", 1+rng.Intn(150),
			streetBases[rng.Intn(len(streetBases))],
			streetSuffixes[rng.Intn(len(streetSuffixes))])
		key := street + "|" + pc
		if seenAddr[key] {
			continue
		}
		seenAddr[key] = true
		beds := 1 + rng.Intn(5)
		price := float64(80_000+rng.Intn(720_000)) / 1000
		price = price * 1000
		p := property{
			street:    street,
			city:      pcCity[pc],
			postcode:  pc,
			bedrooms:  beds,
			price:     price,
			ptype:     propertyTypes[rng.Intn(len(propertyTypes))],
			crimerank: pcCrime[pc],
			masterBed: 9 + rng.Intn(22),
		}
		p.desc = fmt.Sprintf("A %s %d bedroom %s with %s.",
			descAdjectives[rng.Intn(len(descAdjectives))], beds, p.ptype,
			descFeatures[rng.Intn(len(descFeatures))])
		props = append(props, p)
	}

	sc := &Scenario{Config: cfg}
	truth := relation.New(relation.NewSchema("truth",
		"type", "description", "street", "city", "postcode", "bedrooms:int", "price:float", "crimerank:int"))
	for _, p := range props {
		truth.MustAppend(p.ptype, p.desc, p.street, p.city, p.postcode, p.bedrooms, p.price, p.crimerank)
	}
	sc.Truth = truth
	sc.Rightmove = refPortal(RightmoveSchema(), props, cfg, cfg.RightmoveCoverage, rng)
	sc.OnTheMarket = refPortal(OnTheMarketSchema(), props, cfg, cfg.OnTheMarketCoverage, rng)

	dep := relation.New(DeprivationSchema())
	for _, pc := range postcodes {
		if rng.Float64() >= cfg.DeprivationCoverage {
			continue
		}
		dep.MustAppend(pc, pcCrime[pc])
	}
	sc.Deprivation = dep

	ref := relation.New(AddressSchema())
	seen := map[string]bool{}
	for _, p := range props {
		if rng.Float64() >= cfg.AddressRefCoverage {
			continue
		}
		key := p.street + "|" + p.postcode
		if seen[key] {
			continue
		}
		seen[key] = true
		ref.MustAppend(p.street, p.city, p.postcode)
	}
	sc.AddressRef = ref
	return sc, newReferenceOracle(props)
}

// refCityAreas is the city → postcode area table the reference reads.
var refCityAreas = map[string]string{
	"Manchester": "M", "Salford": "M", "Stockport": "SK", "Oldham": "OL",
	"Bury": "BL", "Rochdale": "OL", "Bolton": "BL",
}

// refTypeSynonyms is the synonym table the reference draws from and walks.
var refTypeSynonyms = map[string][]string{
	"detached":      {"Detached", "detached house", "DETACHED"},
	"semi-detached": {"semi", "Semi-Detached", "semi detached"},
	"terraced":      {"Terraced", "terrace", "mid-terrace"},
	"flat":          {"Flat", "apartment", "Apartment"},
	"bungalow":      {"Bungalow", "bungalow "},
}

func refPortal(schema relation.Schema, props []property, cfg Config, coverage float64, rng *rand.Rand) *relation.Relation {
	r := relation.New(schema)
	for _, p := range props {
		if rng.Float64() >= coverage {
			continue
		}
		price := refNoisyPrice(p.price, cfg, rng)
		street := refNoisyStreet(p.street, cfg, rng)
		postcode := refNoisyPostcode(p.postcode, cfg, rng)
		beds := refNoisyBedrooms(p, cfg, rng)
		ptype := refNoisyType(p.ptype, cfg, rng)
		desc := refMaybeNull(relation.String(p.desc), cfg.NullRate, rng)
		r.Tuples = append(r.Tuples, relation.Tuple{price, street, postcode, beds, ptype, desc})
	}
	return r
}

func refMaybeNull(v relation.Value, rate float64, rng *rand.Rand) relation.Value {
	if rng.Float64() < rate {
		return relation.Null()
	}
	return v
}

func refNoisyPrice(price float64, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.FormatNoiseRate {
		switch rng.Intn(3) {
		case 0:
			return relation.String(fmt.Sprintf("£%s", thousandsReference(int(price))))
		case 1:
			return relation.String(thousandsReference(int(price)))
		default:
			return relation.String(fmt.Sprintf("£%d", int(price)))
		}
	}
	return relation.Float(price)
}

func thousandsReference(n int) string {
	s := fmt.Sprint(n)
	var b strings.Builder
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(c)
	}
	return b.String()
}

func refNoisyStreet(street string, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate/2 {
		return relation.Null()
	}
	s := street
	if rng.Float64() < cfg.TypoRate {
		s = refTypo(s, rng)
	}
	if rng.Float64() < cfg.FormatNoiseRate/2 {
		s = strings.ToUpper(s)
	}
	return relation.String(s)
}

func refNoisyPostcode(pc string, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.FormatNoiseRate {
		switch rng.Intn(2) {
		case 0:
			return relation.String(strings.ToLower(pc))
		default:
			return relation.String(strings.ReplaceAll(pc, " ", ""))
		}
	}
	return relation.String(pc)
}

func refNoisyBedrooms(p property, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.BedroomErrorRate {
		return relation.Int(int64(p.masterBed))
	}
	return relation.Int(int64(p.bedrooms))
}

func refNoisyType(ptype string, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.FormatNoiseRate {
		syns := refTypeSynonyms[ptype]
		return relation.String(syns[rng.Intn(len(syns))])
	}
	return relation.String(ptype)
}

func refTypo(s string, rng *rand.Rand) string {
	runes := []rune(s)
	if len(runes) < 4 {
		return s
	}
	i := 1 + rng.Intn(len(runes)-2)
	switch rng.Intn(3) {
	case 0:
		runes[i], runes[i+1] = runes[i+1], runes[i]
	case 1:
		runes = append(runes[:i], runes[i+1:]...)
	default:
		runes = append(runes[:i+1], runes[i:]...)
	}
	return string(runes)
}

func canonicalPostcodeReference(pc string) string {
	s := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(pc), " ", ""))
	if len(s) < 4 {
		return s
	}
	return s[:len(s)-3] + " " + s[len(s)-3:]
}

func canonicalTypeReference(t string) string {
	l := strings.ToLower(strings.TrimSpace(t))
	for canon, syns := range refTypeSynonyms {
		if l == canon {
			return canon
		}
		for _, s := range syns {
			if l == strings.ToLower(strings.TrimSpace(s)) {
				return canon
			}
		}
	}
	switch l {
	case "semi", "semi detached":
		return "semi-detached"
	case "apartment":
		return "flat"
	case "terrace", "mid-terrace":
		return "terraced"
	case "detached house":
		return "detached"
	}
	return l
}

func parsePriceReference(v relation.Value) (float64, bool) {
	if f, ok := v.AsFloat(); ok {
		return f, true
	}
	if v.Kind() != relation.KindString {
		return 0, false
	}
	s := strings.TrimSpace(v.Str())
	s = strings.TrimPrefix(s, "£")
	s = strings.ReplaceAll(s, ",", "")
	if s == "" || strings.EqualFold(s, "POA") {
		return 0, false
	}
	var f float64
	if _, err := fmt.Sscanf(s, "%f", &f); err != nil {
		return 0, false
	}
	return f, true
}

// ReferenceOracle is the Oracle as it was: a map keyed by a struct of two
// canonicalised strings, and an attribute switch on the name per cell.
type ReferenceOracle struct {
	byAddr map[refAddr]oracleRow
}

type refAddr struct{ street, postcode string }

func refAddrKey(street, postcode string) refAddr {
	return refAddr{strings.ToLower(strings.TrimSpace(street)), canonicalPostcodeReference(postcode)}
}

func newReferenceOracle(props []property) *ReferenceOracle {
	o := &ReferenceOracle{byAddr: make(map[refAddr]oracleRow, len(props))}
	for _, p := range props {
		o.byAddr[refAddrKey(p.street, p.postcode)] = oracleRow{
			ptype: p.ptype, desc: p.desc, street: p.street, city: p.city,
			postcode: p.postcode, bedrooms: p.bedrooms, price: p.price,
			crimerank: p.crimerank,
		}
	}
	return o
}

func (o *ReferenceOracle) Size() int { return len(o.byAddr) }

func refValue(row oracleRow, attr string) (relation.Value, bool) {
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

// Lookup reports whether the address identifies a real property; the
// reference's Lookup built a map of the row's values only for this ok.
func (o *ReferenceOracle) Lookup(street, postcode string) bool {
	_, ok := o.byAddr[refAddrKey(street, postcode)]
	return ok
}

func (o *ReferenceOracle) CellCorrect(street, postcode, attr string, v relation.Value) bool {
	row, ok := o.byAddr[refAddrKey(street, postcode)]
	return ok && refCorrect(row, attr, v)
}

func refCorrect(row oracleRow, attr string, v relation.Value) bool {
	want, ok := refValue(row, attr)
	if !ok || v.IsNull() {
		return false
	}
	switch attr {
	case "postcode":
		return canonicalPostcodeReference(v.String()) == want.Str()
	case "type":
		return canonicalTypeReference(v.String()) == want.Str()
	case "price":
		f, ok := parsePriceReference(v)
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

func (o *ReferenceOracle) ScoreResult(res *relation.Relation) Score {
	s := Score{Rows: res.Cardinality(), Completeness: map[string]float64{}}
	si := res.Schema.AttrIndex("street")
	pi := res.Schema.AttrIndex("postcode")
	if si < 0 || pi < 0 || res.Cardinality() == 0 {
		return s
	}
	found := map[refAddr]bool{}
	addressable := 0
	cellsTotal, cellsRight := 0, 0
	valueTotal, valueRight := 0, 0
	nonNull := map[string]int{}
	present := map[string]int{}
	cols := make([]int, len(ScoredAttributes))
	for i, attr := range ScoredAttributes {
		cols[i] = res.Schema.AttrIndex(attr)
	}
	for _, t := range res.Tuples {
		key := refAddrKey(t[si].String(), t[pi].String())
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
				correct := refCorrect(row, attr, t[ai])
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

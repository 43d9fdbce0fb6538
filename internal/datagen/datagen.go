// Package datagen synthesises the paper's demonstration scenario (§2.1,
// Figure 2) at arbitrary scale with retained ground truth: property listings
// as extracted from two deep-web estate portals (Rightmove, Onthemarket),
// an open-government deprivation table, and the data-context reference
// tables (address lists) of Figure 2(c).
//
// The generator substitutes for the paper's live DIADEM extractions and
// gov.uk downloads, which a reproduction cannot fetch (and which change
// under it); crucially it keeps the clean ground
// truth, which the paper's authors had no access to and which is what lets
// this reproduction *measure* the pay-as-you-go claims instead of just
// demonstrating them.
//
// All generation is deterministic in Config.Seed.
package datagen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"unicode/utf8"

	"vada/internal/relation"
)

// Config controls scenario generation.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// NProperties is the number of ground-truth properties.
	NProperties int
	// NPostcodes is the number of distinct postcodes to spread them over.
	NPostcodes int

	// RightmoveCoverage and OnTheMarketCoverage are the fractions of
	// ground-truth properties listed on each portal. Overlap arises
	// naturally and fuels duplicate detection.
	RightmoveCoverage   float64
	OnTheMarketCoverage float64

	// BedroomErrorRate is the probability that a listing reports the master
	// bedroom's floor area instead of the bedroom count — the exact error
	// the paper's feedback walk-through uses (§2.3).
	BedroomErrorRate float64
	// NullRate is the per-cell probability of a missing value in listings.
	NullRate float64
	// FormatNoiseRate is the probability of format variation (price with
	// currency symbols and thousands separators, postcode case/spacing,
	// property-type synonyms).
	FormatNoiseRate float64
	// TypoRate is the probability of a character-level typo in street names.
	TypoRate float64

	// DeprivationCoverage is the fraction of postcodes present in the
	// open-government deprivation table (it is near-complete in reality).
	DeprivationCoverage float64
	// AddressRefCoverage is the fraction of ground-truth addresses present
	// in the reference address list of the data context.
	AddressRefCoverage float64
}

// DefaultConfig returns the configuration used by the examples and the
// experiment harness: moderately dirty sources over 400 properties.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		NProperties:         400,
		NPostcodes:          60,
		RightmoveCoverage:   0.75,
		OnTheMarketCoverage: 0.65,
		BedroomErrorRate:    0.15,
		NullRate:            0.10,
		FormatNoiseRate:     0.20,
		TypoRate:            0.05,
		DeprivationCoverage: 0.95,
		AddressRefCoverage:  1.0,
	}
}

// Scenario bundles everything the demonstration needs.
type Scenario struct {
	// Config echoes the generating configuration.
	Config Config

	// Truth is the clean target-shaped ground truth:
	// truth(type, description, street, city, postcode, bedrooms, price, crimerank).
	Truth *relation.Relation

	// Rightmove and OnTheMarket are the noisy portal extractions, with
	// per-portal attribute names (schema matching has real work to do).
	Rightmove   *relation.Relation
	OnTheMarket *relation.Relation

	// Deprivation is the open-government table deprivation(postcode, crime).
	Deprivation *relation.Relation

	// AddressRef is the data-context reference list of Figure 2(c):
	// address(street, city, postcode).
	AddressRef *relation.Relation

	// Oracle answers ground-truth questions for feedback simulation and
	// experiment scoring.
	Oracle *Oracle
}

// TargetSchema returns the paper's target schema (Figure 2(b)).
func TargetSchema() relation.Schema {
	return relation.NewSchema("target",
		"type", "description", "street", "postcode", "bedrooms:int", "price:float", "crimerank:int")
}

// RightmoveSchema is the Rightmove extraction schema. Names follow the
// paper's Figure 2(a).
func RightmoveSchema() relation.Schema {
	return relation.NewSchema("rightmove",
		"price", "street", "postcode", "bedrooms", "type", "description")
}

// OnTheMarketSchema is the Onthemarket extraction schema, with the divergent
// attribute names real portals have (the paper notes correspondences must be
// derived by schema matchers).
func OnTheMarketSchema() relation.Schema {
	return relation.NewSchema("onthemarket",
		"asking_price", "address_line", "post_code", "num_beds", "property_type", "details")
}

// DeprivationSchema is the open-government schema of Figure 2(a).
func DeprivationSchema() relation.Schema {
	return relation.NewSchema("deprivation", "postcode", "crime:int")
}

// AddressSchema is the data-context schema of Figure 2(c).
func AddressSchema() relation.Schema {
	return relation.NewSchema("address", "street", "city", "postcode")
}

var (
	streetBases = []string{
		"Oakwood", "Church", "Victoria", "Mill", "Station", "Park", "High",
		"Queens", "Kings", "Albert", "Chapel", "Grange", "Holly", "Ivy",
		"Cedar", "Birch", "Elm", "Maple", "Willow", "Rowan", "Hazel",
		"Clarence", "Denton", "Moss", "Heaton", "Lever", "Portland",
	}
	streetSuffixes = []string{"Road", "Street", "Lane", "Avenue", "Close", "Drive", "Grove", "Way"}
	// cities and cityAreas are parallel: cityAreas[i] is the postcode area
	// of cities[i].
	cities        = []string{"Manchester", "Salford", "Stockport", "Oldham", "Bury", "Rochdale", "Bolton"}
	cityAreas     = []string{"M", "M", "SK", "OL", "BL", "OL", "BL"}
	propertyTypes = []string{"detached", "semi-detached", "terraced", "flat", "bungalow"}
	typeSynonyms  = map[string][]string{
		"detached":      {"Detached", "detached house", "DETACHED"},
		"semi-detached": {"semi", "Semi-Detached", "semi detached"},
		"terraced":      {"Terraced", "terrace", "mid-terrace"},
		"flat":          {"Flat", "apartment", "Apartment"},
		"bungalow":      {"Bungalow", "bungalow "},
	}
	descAdjectives = []string{
		"charming", "spacious", "well-presented", "newly refurbished",
		"characterful", "bright", "immaculate", "generous",
	}
	descFeatures = []string{
		"garden", "garage", "open-plan kitchen", "period features",
		"off-road parking", "conservatory", "south-facing garden", "en-suite",
	}
)

// typeCanon maps every canonical property type, and every synonym of one
// lower-cased and trimmed, to the canonical type: CanonicalType's table.
var typeCanon = func() map[string]string {
	m := make(map[string]string)
	for canon, syns := range typeSynonyms {
		m[canon] = canon
		for _, s := range syns {
			m[strings.ToLower(strings.TrimSpace(s))] = canon
		}
	}
	return m
}()

// property is the internal clean record.
type property struct {
	street    string
	city      string
	postcode  string
	bedrooms  int
	price     float64
	ptype     string
	desc      string
	crimerank int
	masterBed int // master bedroom area in m², the paper's error source
}

// Generate builds a deterministic scenario from cfg. A scenario with
// properties needs at least one postcode to put them in.
func Generate(cfg Config) *Scenario {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var buf []byte

	// Postcodes with crime ranks; below, a postcode is its index.
	postcodes := make([]string, 0, cfg.NPostcodes)
	pcCity := make([]string, 0, cfg.NPostcodes)
	pcCrime := make([]int, 0, cfg.NPostcodes)
	seenPC := make(map[string]struct{}, cfg.NPostcodes)
	for len(postcodes) < cfg.NPostcodes {
		city := rng.Intn(len(cities))
		buf = append(buf[:0], cityAreas[city]...)
		buf = strconv.AppendInt(buf, int64(1+rng.Intn(30)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(1+rng.Intn(9)), 10)
		buf = append(buf, 'A'+byte(rng.Intn(26)))
		buf = append(buf, 'A'+byte(rng.Intn(26)))
		if _, dup := seenPC[string(buf)]; dup {
			continue
		}
		pc := string(buf)
		seenPC[pc] = struct{}{}
		postcodes = append(postcodes, pc)
		pcCity = append(pcCity, cities[city])
		pcCrime = append(pcCrime, 1+rng.Intn(32000))
	}

	// Ground-truth properties, no two at one address. A street is its
	// number, base and suffix, so those and the postcode name an address.
	type address struct{ postcode, number, base, suffix int }
	props := make([]property, 0, cfg.NProperties)
	seenAddr := make(map[address]struct{}, cfg.NProperties)
	for len(props) < cfg.NProperties {
		a := address{postcode: rng.Intn(len(postcodes))}
		a.number = 1 + rng.Intn(150)
		a.base = rng.Intn(len(streetBases))
		a.suffix = rng.Intn(len(streetSuffixes))
		if _, dup := seenAddr[a]; dup {
			continue
		}
		seenAddr[a] = struct{}{}
		buf = strconv.AppendInt(buf[:0], int64(a.number), 10)
		buf = append(buf, ' ')
		buf = append(buf, streetBases[a.base]...)
		buf = append(buf, ' ')
		buf = append(buf, streetSuffixes[a.suffix]...)
		p := property{
			street:    string(buf),
			city:      pcCity[a.postcode],
			postcode:  postcodes[a.postcode],
			bedrooms:  1 + rng.Intn(5),
			crimerank: pcCrime[a.postcode],
		}
		p.price = float64(80_000+rng.Intn(720_000)) / 1000
		p.price = p.price * 1000
		p.ptype = propertyTypes[rng.Intn(len(propertyTypes))]
		p.masterBed = 9 + rng.Intn(22)
		buf = append(buf[:0], "A "...)
		buf = append(buf, descAdjectives[rng.Intn(len(descAdjectives))]...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(p.bedrooms), 10)
		buf = append(buf, " bedroom "...)
		buf = append(buf, p.ptype...)
		buf = append(buf, " with "...)
		buf = append(buf, descFeatures[rng.Intn(len(descFeatures))]...)
		buf = append(buf, '.')
		p.desc = string(buf)
		props = append(props, p)
	}

	sc := &Scenario{Config: cfg}
	sc.buildTruth(props)
	sc.Rightmove = portal(RightmoveSchema(), props, cfg, cfg.RightmoveCoverage, rng)
	sc.OnTheMarket = portal(OnTheMarketSchema(), props, cfg, cfg.OnTheMarketCoverage, rng)
	sc.buildDeprivation(postcodes, pcCrime, rng)
	sc.buildAddressRef(props, rng)
	sc.Oracle = newOracle(props)
	return sc
}

func (sc *Scenario) buildTruth(props []property) {
	truth := relation.New(relation.NewSchema("truth",
		"type", "description", "street", "city", "postcode", "bedrooms:int", "price:float", "crimerank:int"))
	truth.Tuples = make([]relation.Tuple, 0, len(props))
	for _, p := range props {
		truth.Tuples = append(truth.Tuples, relation.Tuple{
			relation.String(p.ptype), relation.String(p.desc), relation.String(p.street),
			relation.String(p.city), relation.String(p.postcode), relation.Int(int64(p.bedrooms)),
			relation.Float(p.price), relation.Int(int64(p.crimerank))})
	}
	sc.Truth = truth
}

// portal is one estate portal's noisy extraction of the properties it
// lists; both portals draw the same noise, under their own schemas.
func portal(schema relation.Schema, props []property, cfg Config, coverage float64, rng *rand.Rand) *relation.Relation {
	r := relation.New(schema)
	for _, p := range props {
		if rng.Float64() >= coverage {
			continue
		}
		price := noisyPrice(p.price, cfg, rng)
		street := noisyStreet(p.street, cfg, rng)
		postcode := noisyPostcode(p.postcode, cfg, rng)
		beds := noisyBedrooms(p, cfg, rng)
		ptype := noisyType(p.ptype, cfg, rng)
		desc := maybeNull(relation.String(p.desc), cfg.NullRate, rng)
		r.Tuples = append(r.Tuples, relation.Tuple{price, street, postcode, beds, ptype, desc})
	}
	return r
}

func (sc *Scenario) buildDeprivation(postcodes []string, pcCrime []int, rng *rand.Rand) {
	r := relation.New(DeprivationSchema())
	for i, pc := range postcodes {
		if rng.Float64() >= sc.Config.DeprivationCoverage {
			continue
		}
		r.Tuples = append(r.Tuples, relation.Tuple{relation.String(pc), relation.Int(int64(pcCrime[i]))})
	}
	sc.Deprivation = r
}

// buildAddressRef lists each property's address once: no two properties
// share one (Generate draws them so).
func (sc *Scenario) buildAddressRef(props []property, rng *rand.Rand) {
	r := relation.New(AddressSchema())
	for _, p := range props {
		if rng.Float64() >= sc.Config.AddressRefCoverage {
			continue
		}
		r.Tuples = append(r.Tuples, relation.Tuple{relation.String(p.street), relation.String(p.city), relation.String(p.postcode)})
	}
	sc.AddressRef = r
}

// --- noise model ---------------------------------------------------------

func maybeNull(v relation.Value, rate float64, rng *rand.Rand) relation.Value {
	if rng.Float64() < rate {
		return relation.Null()
	}
	return v
}

// noisyPrice renders the price, sometimes as a formatted string
// ("£250,000"), sometimes as "POA" (null-equivalent), sometimes clean.
func noisyPrice(price float64, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.FormatNoiseRate {
		var buf [32]byte
		var b []byte
		n := int(price)
		switch rng.Intn(3) {
		case 0:
			b = appendThousands(append(buf[:0], "£"...), n)
		case 1:
			b = appendThousands(buf[:0], n)
		default:
			b = strconv.AppendInt(append(buf[:0], "£"...), int64(n), 10)
		}
		return relation.String(string(b))
	}
	return relation.Float(price)
}

// appendThousands appends n in decimal with a comma before every third digit
// from the right.
func appendThousands(dst []byte, n int) []byte {
	var digits [24]byte
	s := strconv.AppendInt(digits[:0], int64(n), 10)
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, c)
	}
	return dst
}

func noisyStreet(street string, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate/2 { // streets are rarely missing
		return relation.Null()
	}
	s := street
	if rng.Float64() < cfg.TypoRate {
		s = typo(s, rng)
	}
	if rng.Float64() < cfg.FormatNoiseRate/2 {
		s = strings.ToUpper(s)
	}
	return relation.String(s)
}

func noisyPostcode(pc string, cfg Config, rng *rand.Rand) relation.Value {
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

// noisyBedrooms reproduces the paper's §2.3 error: with BedroomErrorRate the
// master bedroom's floor area (m²) leaks into the bedrooms field.
func noisyBedrooms(p property, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.BedroomErrorRate {
		return relation.Int(int64(p.masterBed))
	}
	return relation.Int(int64(p.bedrooms))
}

func noisyType(ptype string, cfg Config, rng *rand.Rand) relation.Value {
	if rng.Float64() < cfg.NullRate {
		return relation.Null()
	}
	if rng.Float64() < cfg.FormatNoiseRate {
		syns := typeSynonyms[ptype]
		return relation.String(syns[rng.Intn(len(syns))])
	}
	return relation.String(ptype)
}

func typo(s string, rng *rand.Rand) string {
	runes := []rune(s)
	if len(runes) < 4 {
		return s
	}
	i := 1 + rng.Intn(len(runes)-2)
	switch rng.Intn(3) {
	case 0: // swap
		runes[i], runes[i+1] = runes[i+1], runes[i]
	case 1: // drop
		runes = append(runes[:i], runes[i+1:]...)
	default: // double
		runes = append(runes[:i+1], runes[i:]...)
	}
	return string(runes)
}

// --- canonicalisation ----------------------------------------------------

// CanonicalPostcode normalises a postcode for comparison: upper case, single
// internal space before the final three characters. A postcode already in
// that form is returned as it is.
func CanonicalPostcode(pc string) string {
	var buf [16]byte
	b := appendCanonicalPostcode(buf[:0], pc)
	if string(b) == pc {
		return pc
	}
	return string(b)
}

// appendCanonicalPostcode appends CanonicalPostcode(pc) to dst: the trimmed
// postcode without its spaces, upper-cased, split by one space before its
// last three bytes when it has at least four.
func appendCanonicalPostcode(dst []byte, pc string) []byte {
	s := strings.TrimSpace(pc)
	start := len(dst)
	if isASCII(s) {
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == ' ' {
				continue
			}
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
		}
	} else {
		dst = append(dst, strings.ToUpper(strings.ReplaceAll(s, " ", ""))...)
	}
	n := len(dst) - start
	if n < 4 {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[len(dst)-3:], dst[len(dst)-4:len(dst)-1])
	dst[len(dst)-4] = ' '
	return dst
}

// CanonicalType maps a portal's property-type spelling to the canonical
// vocabulary, or returns the lower-cased input when unknown.
func CanonicalType(t string) string {
	s := strings.TrimSpace(t)
	if !isASCII(s) {
		l := strings.ToLower(s)
		if canon, ok := typeCanon[l]; ok {
			return canon
		}
		return l
	}
	var buf [32]byte
	l := appendLowerASCII(buf[:0], s)
	if canon, ok := typeCanon[string(l)]; ok {
		return canon
	}
	if string(l) == s {
		return s
	}
	return string(l)
}

// ParsePrice extracts a numeric price from noisy renderings such as
// "£250,000"; ok is false for unparseable or missing prices. Text that is
// not digits and thousands separators is read by fmt's %f, which takes a
// number at its start ("12 High St" is 12) and reads "inf" and "NaN".
func ParsePrice(v relation.Value) (float64, bool) {
	if f, ok := v.AsFloat(); ok {
		return f, true
	}
	if v.Kind() != relation.KindString {
		return 0, false
	}
	s := strings.TrimSpace(v.Str())
	s = strings.TrimPrefix(s, "£")
	var buf [32]byte
	if digits, ok := appendDigits(buf[:0], s); ok {
		f, err := strconv.ParseFloat(string(digits), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
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

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// appendDigits appends the digits of s to dst, dropping its commas; ok is
// false unless s holds nothing else and at least one digit.
func appendDigits(dst []byte, s string) (digits []byte, ok bool) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case '0' <= c && c <= '9':
			dst = append(dst, c)
			ok = true
		case c != ',':
			return dst, false
		}
	}
	return dst, ok
}

// appendLowerASCII appends the ASCII string s lower-cased, as
// strings.ToLower would.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

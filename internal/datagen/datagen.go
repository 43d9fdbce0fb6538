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
	"strings"

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
	cities         = []string{"Manchester", "Salford", "Stockport", "Oldham", "Bury", "Rochdale", "Bolton"}
	cityAreas      = map[string]string{
		"Manchester": "M", "Salford": "M", "Stockport": "SK", "Oldham": "OL",
		"Bury": "BL", "Rochdale": "OL", "Bolton": "BL",
	}
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

// property is the internal clean record.
type property struct {
	id        int
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

// Generate builds a deterministic scenario from cfg.
func Generate(cfg Config) *Scenario {
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Postcodes with crime ranks.
	postcodes := make([]string, 0, cfg.NPostcodes)
	pcCity := make(map[string]string, cfg.NPostcodes)
	pcCrime := make(map[string]int, cfg.NPostcodes)
	seenPC := map[string]bool{}
	for len(postcodes) < cfg.NPostcodes {
		city := cities[rng.Intn(len(cities))]
		area := cityAreas[city]
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

	// Ground-truth properties.
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
			id:        len(props),
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
	sc.buildTruth(props)
	sc.buildRightmove(props, rng)
	sc.buildOnTheMarket(props, rng)
	sc.buildDeprivation(postcodes, pcCrime, rng)
	sc.buildAddressRef(props, rng)
	sc.Oracle = newOracle(props)
	return sc
}

func (sc *Scenario) buildTruth(props []property) {
	truth := relation.New(relation.NewSchema("truth",
		"type", "description", "street", "city", "postcode", "bedrooms:int", "price:float", "crimerank:int"))
	for _, p := range props {
		truth.MustAppend(p.ptype, p.desc, p.street, p.city, p.postcode, p.bedrooms, p.price, p.crimerank)
	}
	sc.Truth = truth
}

func (sc *Scenario) buildRightmove(props []property, rng *rand.Rand) {
	cfg := sc.Config
	r := relation.New(RightmoveSchema())
	for _, p := range props {
		if rng.Float64() >= cfg.RightmoveCoverage {
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
	sc.Rightmove = r
}

func (sc *Scenario) buildOnTheMarket(props []property, rng *rand.Rand) {
	cfg := sc.Config
	r := relation.New(OnTheMarketSchema())
	for _, p := range props {
		if rng.Float64() >= cfg.OnTheMarketCoverage {
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
	sc.OnTheMarket = r
}

func (sc *Scenario) buildDeprivation(postcodes []string, pcCrime map[string]int, rng *rand.Rand) {
	r := relation.New(DeprivationSchema())
	for _, pc := range postcodes {
		if rng.Float64() >= sc.Config.DeprivationCoverage {
			continue
		}
		r.MustAppend(pc, pcCrime[pc])
	}
	sc.Deprivation = r
}

func (sc *Scenario) buildAddressRef(props []property, rng *rand.Rand) {
	r := relation.New(AddressSchema())
	seen := map[string]bool{}
	for _, p := range props {
		if rng.Float64() >= sc.Config.AddressRefCoverage {
			continue
		}
		key := p.street + "|" + p.postcode
		if seen[key] {
			continue
		}
		seen[key] = true
		r.MustAppend(p.street, p.city, p.postcode)
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
		switch rng.Intn(3) {
		case 0:
			return relation.String(fmt.Sprintf("£%s", thousands(int(price))))
		case 1:
			return relation.String(thousands(int(price)))
		default:
			return relation.String(fmt.Sprintf("£%d", int(price)))
		}
	}
	return relation.Float(price)
}

func thousands(n int) string {
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

// CanonicalPostcode normalises a postcode for comparison: upper case, single
// internal space before the final three characters.
func CanonicalPostcode(pc string) string {
	s := strings.ToUpper(strings.ReplaceAll(strings.TrimSpace(pc), " ", ""))
	if len(s) < 4 {
		return s
	}
	return s[:len(s)-3] + " " + s[len(s)-3:]
}

// CanonicalType maps a portal's property-type spelling to the canonical
// vocabulary, or returns the lower-cased input when unknown.
func CanonicalType(t string) string {
	l := strings.ToLower(strings.TrimSpace(t))
	for canon, syns := range typeSynonyms {
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

// ParsePrice extracts a numeric price from noisy renderings such as
// "£250,000"; ok is false for unparseable or missing prices.
func ParsePrice(v relation.Value) (float64, bool) {
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

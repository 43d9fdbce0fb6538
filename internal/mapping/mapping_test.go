package mapping

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/match"
	"vada/internal/mcda"
	"vada/internal/quality"
	"vada/internal/relation"
	"vada/internal/vadalog"
)

func scenarioSources(t *testing.T, n int) (*datagen.Scenario, []*relation.Relation) {
	t.Helper()
	cfg := datagen.DefaultConfig()
	cfg.NProperties = n
	sc := datagen.Generate(cfg)
	return sc, []*relation.Relation{sc.Rightmove, sc.OnTheMarket, sc.Deprivation}
}

func allMatches(sc *datagen.Scenario, target relation.Schema, withInstances bool) []match.Match {
	lists := [][]match.Match{
		match.MatchSchemas(sc.Rightmove.Schema, target),
		match.MatchSchemas(sc.OnTheMarket.Schema, target),
		match.MatchSchemas(sc.Deprivation.Schema, target),
	}
	if withInstances {
		inst := match.ProfileInstances(sc.AddressRef)
		lists = append(lists, inst.Match(sc.Rightmove), inst.Match(sc.OnTheMarket))
	}
	return match.Combine(lists...)
}

func targetWithCrime() relation.Schema {
	// The deprivation "crime" attribute must match target "crimerank";
	// name similarity carries this one ("crime" ⊂ "crimerank").
	return datagen.TargetSchema()
}

func TestDiscoverInclusionDeps(t *testing.T) {
	sc, rels := scenarioSources(t, 200)
	_ = sc
	ids := DiscoverInclusionDeps(rels, 0.25)
	found := false
	for _, id := range ids {
		if id.FromRel == "rightmove" && id.FromAttr == "postcode" &&
			id.ToRel == "deprivation" && id.ToAttr == "postcode" {
			found = true
			if id.Overlap < 0.5 {
				t.Errorf("overlap suspiciously low: %v", id.Overlap)
			}
		}
	}
	if !found {
		t.Fatalf("rightmove.postcode ⊆ deprivation.postcode not discovered: %v", ids)
	}
	// Same-relation pairs never reported.
	for _, id := range ids {
		if id.FromRel == id.ToRel {
			t.Fatalf("self-dependency reported: %v", id)
		}
	}
}

func TestGenerateBaseMappings(t *testing.T) {
	sc, rels := scenarioSources(t, 150)
	ms := allMatches(sc, targetWithCrime(), false)
	maps := ProfileSources(rels).Generate(targetWithCrime(), ms, DefaultGenOptions())
	byID := map[string]Mapping{}
	for _, m := range maps {
		byID[m.ID] = m
	}
	rm, ok := byID["m_rightmove"]
	if !ok {
		t.Fatalf("base mapping for rightmove missing: %v", maps)
	}
	cov := rm.Covered()
	if len(cov) < 5 {
		t.Fatalf("rightmove should cover ≥5 target attrs by name: %v", cov)
	}
	if _, ok := byID["m_deprivation"]; ok {
		t.Fatal("deprivation (1 match) should not earn a base mapping")
	}
}

func TestGenerateJoinMapping(t *testing.T) {
	sc, rels := scenarioSources(t, 150)
	ms := allMatches(sc, targetWithCrime(), false)
	maps := ProfileSources(rels).Generate(targetWithCrime(), ms, DefaultGenOptions())
	var jm *Mapping
	for i, m := range maps {
		if m.ID == "m_rightmove+deprivation" {
			jm = &maps[i]
		}
	}
	if jm == nil {
		t.Fatalf("join mapping missing: %v", maps)
	}
	if jm.AttrProvenance["crimerank"] != "deprivation.crime" {
		t.Fatalf("crimerank provenance = %q", jm.AttrProvenance["crimerank"])
	}
	if !strings.Contains(jm.Program, "not deprivation_haskey") {
		t.Fatalf("left-join guard missing:\n%s", jm.Program)
	}
}

func TestExecuteBaseMapping(t *testing.T) {
	sc, rels := scenarioSources(t, 100)
	ms := allMatches(sc, targetWithCrime(), false)
	maps := ProfileSources(rels).Generate(targetWithCrime(), ms, DefaultGenOptions())
	var base *Mapping
	for i, m := range maps {
		if m.ID == "m_rightmove" {
			base = &maps[i]
		}
	}
	srcs := map[string]*relation.Relation{
		"rightmove": sc.Rightmove, "onthemarket": sc.OnTheMarket, "deprivation": sc.Deprivation,
	}
	res, err := Execute(*base, srcs, vadalog.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	// Result is target + provenance; cardinality = distinct source tuples.
	if res.Schema.Arity() != targetWithCrime().Arity()+1 {
		t.Fatalf("result schema %v", res.Schema)
	}
	if res.Cardinality() == 0 || res.Cardinality() > sc.Rightmove.Cardinality() {
		t.Fatalf("result rows = %d (source %d)", res.Cardinality(), sc.Rightmove.Cardinality())
	}
	// Provenance constant present.
	pi := res.Schema.AttrIndex(ProvenanceAttr)
	for _, tp := range res.Tuples {
		if tp[pi].Str() != "rightmove" {
			t.Fatalf("provenance = %v", tp[pi])
		}
	}
	// crimerank must be null in the base mapping (uncovered).
	ci := res.Schema.AttrIndex("crimerank")
	for _, tp := range res.Tuples {
		if !tp[ci].IsNull() {
			t.Fatalf("crimerank should be null in base mapping: %v", tp[ci])
		}
	}
}

func TestExecuteJoinMappingFillsCrimerank(t *testing.T) {
	sc, rels := scenarioSources(t, 150)
	ms := allMatches(sc, targetWithCrime(), false)
	maps := ProfileSources(rels).Generate(targetWithCrime(), ms, DefaultGenOptions())
	var jm *Mapping
	for i, m := range maps {
		if m.ID == "m_rightmove+deprivation" {
			jm = &maps[i]
		}
	}
	if jm == nil {
		t.Skip("join mapping not generated")
	}
	srcs := map[string]*relation.Relation{
		"rightmove": sc.Rightmove, "deprivation": sc.Deprivation,
	}
	res, err := Execute(*jm, srcs, vadalog.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	ci := res.Schema.AttrIndex("crimerank")
	withCrime := 0
	for _, tp := range res.Tuples {
		if !tp[ci].IsNull() {
			withCrime++
		}
	}
	if withCrime == 0 {
		t.Fatal("join mapping should populate crimerank for clean postcodes")
	}
	// Left-join semantics: every base tuple appears at least once.
	if res.Cardinality() < sc.Rightmove.Cardinality() {
		t.Fatalf("left join must keep all base tuples: %d < %d", res.Cardinality(), sc.Rightmove.Cardinality())
	}
}

func TestExecuteBadProgramFails(t *testing.T) {
	m := Mapping{ID: "bad", Target: datagen.TargetSchema(), Program: "target(X :- src(X)."}
	if _, err := Execute(m, nil, vadalog.NewEngine()); err == nil {
		t.Fatal("unparseable program must fail")
	}
}

func TestSelectByUserContextPrefersCrimerankMapping(t *testing.T) {
	target := targetWithCrime()
	baseRep := quality.Report{
		Relation:     target.Name,
		Completeness: map[string]float64{"crimerank": 0.0, "bedrooms": 0.9, "street": 0.95},
		Consistency:  0.9,
	}
	joinRep := quality.Report{
		Relation:     target.Name,
		Completeness: map[string]float64{"crimerank": 0.8, "bedrooms": 0.9, "street": 0.95},
		Consistency:  0.9,
	}
	cands := []Candidate{
		{Mapping: Mapping{ID: "m_base", Target: target}, Report: baseRep},
		{Mapping: Mapping{ID: "m_join", Target: target}, Report: joinRep},
	}

	// Crime-analysis user context (paper Fig. 2(d)): completeness of
	// crimerank dominates.
	model := mcda.NewModel()
	_ = model.AddComparison(
		mcda.Criterion{Metric: "completeness", Target: "crimerank"},
		mcda.Criterion{Metric: "completeness", Target: "bedrooms"},
		mcda.VeryStrongly)
	weights, _, err := model.Weights()
	if err != nil {
		t.Fatal(err)
	}
	ranked := SelectByUserContext(cands, weights, 0)
	if ranked[0].Mapping.ID != "m_join" {
		t.Fatalf("crime context should rank join mapping first: %v", ranked[0].Mapping.ID)
	}

	// No user context: join still wins on mean completeness — both orders
	// valid; just check determinism and no filtering.
	ranked = SelectByUserContext(cands, nil, 0)
	if len(ranked) != 2 {
		t.Fatalf("default selection should keep all: %v", len(ranked))
	}
	// Threshold filters.
	ranked = SelectByUserContext(cands, weights, 0.99)
	if len(ranked) != 0 {
		t.Fatalf("threshold should filter all: %v", ranked)
	}
}

func TestSelectDeterministicTieBreak(t *testing.T) {
	target := targetWithCrime()
	rep := quality.Report{Relation: target.Name, Completeness: map[string]float64{"a": 0.5}, Consistency: 1}
	cands := []Candidate{
		{Mapping: Mapping{ID: "m_b", Target: target}, Report: rep},
		{Mapping: Mapping{ID: "m_a", Target: target}, Report: rep},
	}
	ranked := SelectByUserContext(cands, nil, 0)
	if ranked[0].Mapping.ID != "m_a" {
		t.Fatalf("ties must break lexicographically: %v", ranked[0].Mapping.ID)
	}
}

func TestInstanceMatchesImproveCoverage(t *testing.T) {
	sc, rels := scenarioSources(t, 200)
	target := targetWithCrime()
	nameOnly := ProfileSources(rels).Generate(target, allMatches(sc, target, false), DefaultGenOptions())
	withInst := ProfileSources(rels).Generate(target, allMatches(sc, target, true), DefaultGenOptions())
	covOf := func(maps []Mapping, id string) int {
		for _, m := range maps {
			if m.ID == id {
				return len(m.Covered())
			}
		}
		return 0
	}
	before := covOf(nameOnly, "m_onthemarket")
	after := covOf(withInst, "m_onthemarket")
	if after <= before {
		t.Fatalf("instance matches should widen onthemarket coverage: %d -> %d", before, after)
	}
}

// TestGenerateFromProfile holds profile-then-generate to the Generate it
// replaced, over the scenarios the match oracle uses: one profile of the
// sources serves every set of matches and every threshold, as the
// mapping-generation transducer keeps it across runs, and must give what
// profiling on every call gave.
func TestGenerateFromProfile(t *testing.T) {
	target := datagen.TargetSchema()
	generated := 0
	for _, n := range []int{40, 100, 600} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties, cfg.Seed = n, seed
			sc := datagen.Generate(cfg)
			rels := []*relation.Relation{sc.Rightmove, sc.OnTheMarket, sc.Deprivation}
			profile := ProfileSources(rels)
			if !profile.Of(rels) || profile.Of(rels[:2]) || profile.Of([]*relation.Relation{sc.Rightmove, sc.OnTheMarket, sc.Deprivation.Clone()}) {
				t.Fatalf("n=%d seed=%d: a profile is of the relations it was taken of, and of no others", n, seed)
			}
			for _, withInstances := range []bool{false, true} {
				matches := allMatches(sc, target, withInstances)
				for _, opts := range []GenOptions{
					DefaultGenOptions(),
					{MatchThreshold: 0.3, MinCoverage: 1, JoinMinOverlap: 0},
					{MatchThreshold: 0.6, MinCoverage: 2, JoinMinOverlap: 0.9},
					{MatchThreshold: 0.6, MinCoverage: 3, JoinMinOverlap: 1.1},
				} {
					want := referenceGenerate(target, rels, matches, opts)
					label := fmt.Sprintf("n=%d seed=%d instances=%v %+v", n, seed, withInstances, opts)
					if got := profile.Generate(target, matches, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: from the shared profile\n%v\nthe reference generates\n%v", label, got, want)
					}
					if got := ProfileSources(rels).Generate(target, matches, opts); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Generate\n%v\nthe reference generates\n%v", label, got, want)
					}
					generated += len(want)
				}
			}
		}
	}
	if generated < 300 {
		t.Fatalf("the reference generated %d mappings in all: the test compares too little", generated)
	}
}

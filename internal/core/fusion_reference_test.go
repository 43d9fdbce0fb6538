package core

// The reference implementation of duplicate fusion: the duplicate-fusion body
// as it was before it remembered its last run, kept as the oracle of
// FuzzFusionDifferential and TestFusionDifferential. Every run it unions the
// selected results, patches the union, blocks, clusters and fuses all of it.

import (
	"math/rand"
	"testing"

	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/fusion"
	"vada/internal/mapping"
	"vada/internal/relation"
)

func referenceFuse(in fusionInput) (fusionResult, error) {
	var union *relation.Relation
	for _, res := range in.results {
		if union == nil {
			union = res
			continue
		}
		u, err := union.Union(res)
		if err != nil {
			return fusionResult{}, err
		}
		union = u
	}
	if union == nil {
		return fusionResult{}, nil
	}
	patched, nCorr := feedback.Apply(union, feedback.IndexKeys(union), in.items)
	patched, nSupp := feedback.ApplyRangeRules(patched, in.rules)
	block := fusion.BlockByAttr(fusionBlockAttr, datagen.CanonicalPostcode)
	blocks := make([]string, len(patched.Tuples))
	for i, t := range patched.Tuples {
		blocks[i] = block(t, patched.Schema)
	}
	clusters := fusion.DetectDuplicates(patched, blocks, identityScorer(fusionIdentityAttr), 1)
	strategy := fusion.Voting
	if len(in.trust) > 0 {
		strategy = fusion.TrustWeighted
	}
	fused := fusion.Fuse(patched, clusters, fusion.Options{
		Strategy:       strategy,
		ProvenanceAttr: mapping.ProvenanceAttr,
		Trust:          in.trust,
	}).Distinct()
	fused.Schema.Name = in.name
	return fusionResult{result: fused, union: union.Cardinality(), clusters: len(clusters),
		corrections: nCorr, suppressed: nSupp}, nil
}

// script reads a fusion conversation from bytes: past the end, every byte is 0.
type script struct {
	data []byte
	at   int
}

func (s *script) next(n int) int {
	if s.at >= len(s.data) {
		return 0
	}
	s.at++
	return int(s.data[s.at-1]) % n
}

// The values a script draws from: few enough that rows share blocks and
// streets up to case and spacing, and corrections move rows between them.
var (
	scriptStreets   = []relation.Value{relation.String("1 High St"), relation.String("1 HIGH ST "), relation.String("2 Low Rd"), relation.String("3 Mid Ln"), relation.Null()}
	scriptPostcodes = []relation.Value{relation.String("M1 1AA"), relation.String("m11aa"), relation.String("M1 1AB"), relation.String("M2 2BB"), relation.String("X"), relation.Null()}
	scriptSources   = []string{"rightmove", "onthemarket", "rightmove+deprivation"}
	scriptWeights   = []float64{0, 0.25, 0.5, 1}
	scriptAttrs     = []string{"bedrooms", "bedrooms", "street", "postcode", "_src", ""}
)

func (s *script) value(attr string) relation.Value {
	switch attr {
	case "street":
		return scriptStreets[s.next(len(scriptStreets))]
	case "postcode":
		return scriptPostcodes[s.next(len(scriptPostcodes))]
	case "_src":
		if i := s.next(len(scriptSources) + 1); i < len(scriptSources) {
			return relation.String(scriptSources[i])
		}
		return relation.Null()
	}
	if i := s.next(12); i < 10 {
		return relation.Int(int64(i))
	}
	return relation.Null()
}

func (s *script) result() *relation.Relation {
	r := relation.New(relation.NewSchema("target", "street", "postcode", "bedrooms", "_src"))
	for n := 1 + s.next(8); n > 0; n-- {
		r.Tuples = append(r.Tuples, relation.Tuple{s.value("street"), s.value("postcode"), s.value("bedrooms"), s.value("_src")})
	}
	return r
}

// checkFusionScript plays a conversation read from data — results selected,
// replaced and reordered, feedback items added, range rules and trust set — and
// after every step holds what the remembering fusion gives to what the
// reference gives, and every result either gave before to what it was.
func checkFusionScript(t *testing.T, data []byte) {
	s := &script{data: data}
	in := fusionInput{results: []*relation.Relation{s.result(), s.result()}, name: "target"}
	var memo *fusionMemo
	var given []*relation.Relation // every result the remembering fusion returned
	var frozen []*relation.Relation
	for step := 0; step < 12 && s.at < len(s.data); step++ {
		switch s.next(8) {
		case 0, 1, 2:
			for n := 1 + s.next(6); n > 0; n-- {
				it := feedback.Item{Street: s.value("street").String(), Postcode: s.value("postcode").String(),
					Attr: scriptAttrs[s.next(len(scriptAttrs))], Correct: s.next(3) == 0}
				if s.next(2) == 0 {
					it.Corrected, it.HasCorrection = s.value(it.Attr), true
				}
				in.items = append(in.items, it)
			}
		case 3:
			in.rules = nil
			for n := s.next(3); n > 0; n-- {
				lo := float64(s.next(6))
				in.rules = append(in.rules, feedback.RangeRule{Attr: "bedrooms", Min: lo, Max: lo + float64(s.next(6))})
			}
		case 4:
			in.trust = map[string]float64{}
			for _, src := range scriptSources {
				if w := s.next(len(scriptWeights) + 1); w < len(scriptWeights) {
					in.trust[src] = scriptWeights[w]
				}
			}
		case 5:
			results := append([]*relation.Relation(nil), in.results...)
			results[s.next(len(results))] = s.result()
			if s.next(3) == 0 {
				results = append(results, s.result())
			}
			in.results = results
		case 6:
			in.results = []*relation.Relation{in.results[len(in.results)-1], in.results[0]}
		case 7:
			in.name = []string{"target", "result"}[s.next(2)]
		}
		want, err := referenceFuse(in)
		if err != nil {
			t.Fatal(err)
		}
		next, got, err := memo.fuse(in)
		if err != nil {
			t.Fatal(err)
		}
		memo = next
		if !got.result.Identical(want.result) || got.union != want.union || got.clusters != want.clusters ||
			got.corrections != want.corrections || got.suppressed != want.suppressed {
			t.Fatalf("script %x, step %d: remembering fusion gave %d clusters, %d corrections, %d suppressed:\n%v\nthe reference %d, %d, %d:\n%v",
				data, step, got.clusters, got.corrections, got.suppressed, got.result, want.clusters, want.corrections, want.suppressed, want.result)
		}
		given, frozen = append(given, got.result), append(frozen, got.result.Clone())
		for i, r := range given {
			if !r.Identical(frozen[i]) {
				t.Fatalf("script %x, step %d: the result step %d returned was written to since", data, step, i)
			}
		}
	}
}

// FuzzFusionDifferential holds duplicate fusion that remembers its last run to
// the reference that recomputes everything, over random conversations on small
// relations.
func FuzzFusionDifferential(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 0, 1, 1, 2, 2, 3, 4, 4, 4, 4, 0, 3, 1},
		{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 4, 1, 2, 3, 0, 1, 1, 2, 0, 5, 0, 2, 6, 0, 4, 3, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(checkFusionScript)
}

// TestFusionDifferential plays FuzzFusionDifferential's check over pseudo-random
// scripts, so that every test run covers more than the fuzz seeds.
func TestFusionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 40+rng.Intn(200))
		rng.Read(data)
		checkFusionScript(t, data)
	}
}

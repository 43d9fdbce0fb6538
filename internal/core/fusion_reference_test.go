package core

// The reference implementation of duplicate fusion: the duplicate-fusion body
// as it was before it remembered its last run and before duplicates were the
// rows sharing a key, kept as the oracle of FuzzFusionDifferential and
// TestFusionDifferential. Every run it unions the selected results, patches
// the union, blocks it by postcode, scores every pair of a block, clusters the
// pairs by union-find and fuses each cluster by a strategy vote.

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/feedback"
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
	clusters := referenceDetectDuplicates(patched)
	inCluster := map[int]int{} // row -> cluster index
	for ci, members := range clusters {
		for _, r := range members {
			inCluster[r] = ci
		}
	}
	fused := relation.New(patched.Schema)
	for i, t := range patched.Tuples {
		ci, clustered := inCluster[i]
		switch {
		case !clustered:
			fused.Tuples = append(fused.Tuples, t)
		case clusters[ci][0] == i:
			fused.Tuples = append(fused.Tuples, referenceVote(patched, clusters[ci], in.trust))
		}
	}
	fused = fused.Distinct()
	fused.Schema.Name = in.name
	return fusionResult{result: fused, union: union.Cardinality(), clusters: len(clusters),
		corrections: nCorr, suppressed: nSupp}, nil
}

// referenceDetectDuplicates clusters the rows of rel: rows in the same
// canonical postcode block whose streets are equal after case and space
// folding are unioned, pair by pair. It lists the clusters of two rows or
// more, each ascending, in order of first row.
func referenceDetectDuplicates(rel *relation.Relation) [][]int {
	bi, si := rel.Schema.AttrIndex("postcode"), rel.Schema.AttrIndex("street")
	parent := make([]int, len(rel.Tuples))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	rowsOf := map[string][]int{}
	for i, t := range rel.Tuples {
		if bi < 0 || t[bi].IsNull() {
			continue
		}
		if b := datagen.CanonicalPostcode(t[bi].String()); b != "" {
			rowsOf[b] = append(rowsOf[b], i)
		}
	}
	same := func(a, b relation.Tuple) bool {
		return si >= 0 && !a[si].IsNull() && !b[si].IsNull() &&
			strings.EqualFold(strings.TrimSpace(a[si].String()), strings.TrimSpace(b[si].String()))
	}
	for _, rows := range rowsOf {
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				if same(rel.Tuples[rows[i]], rel.Tuples[rows[j]]) {
					ra, rb := find(rows[i]), find(rows[j])
					parent[max(ra, rb)] = min(ra, rb)
				}
			}
		}
	}
	clusters := map[int][]int{}
	for i := range rel.Tuples {
		r := find(i)
		clusters[r] = append(clusters[r], i)
	}
	var out [][]int
	for _, members := range clusters {
		if len(members) > 1 {
			out = append(out, members)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// referenceVote fuses a cluster under the strategy the wrangler picks: a vote
// of one per row without trust, weighted by each row's source trust (1 for a
// source without any) with it.
func referenceVote(rel *relation.Relation, members []int, trust map[string]float64) relation.Tuple {
	provIdx := rel.Schema.AttrIndex(mapping.ProvenanceAttr)
	t := make(relation.Tuple, rel.Schema.Arity())
	for col := range t {
		var seen []relation.Value
		var weights []float64
		for _, r := range members {
			v := rel.Tuples[r][col]
			if v.IsNull() {
				continue
			}
			w := 1.0
			if len(trust) > 0 && provIdx >= 0 {
				if tw, ok := trust[rel.Tuples[r][provIdx].String()]; ok {
					w = tw
				}
			}
			j := slices.IndexFunc(seen, v.Same)
			if j < 0 {
				j, seen, weights = len(seen), append(seen, v), append(weights, 0)
			}
			weights[j] += w
		}
		t[col] = relation.Null()
		bestW := -1.0
		for j, w := range weights {
			if w > bestW {
				bestW, t[col] = w, seen[j]
			}
		}
	}
	return t
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
// Streets 4 are the same up to case only through the Kelvin sign and the long
// s; streets 5 only as EqualFold reads an invalid byte, as U+FFFD.
var (
	scriptStreets = []relation.Value{relation.String("1 High St"), relation.String("1 HIGH ST "), relation.String("2 Low Rd"), relation.String("3 Mid Ln"),
		relation.String("4 \u212Aing \u017Ft"), relation.String("4 king ST"), relation.String("5 \xffrd"), relation.String("5 \uFFFDRd"), relation.Null()}
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

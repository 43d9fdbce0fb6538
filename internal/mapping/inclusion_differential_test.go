package mapping

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/match"
	"vada/internal/relation"
)

// refDiscoverInclusionDeps is DiscoverInclusionDeps as it was before it read
// the folded column views: it folds every value of every column on every call
// into sets of its own. Kept verbatim as the oracle of
// TestInclusionDepsDifferential.
func refDiscoverInclusionDeps(rels []*relation.Relation, minOverlap float64) []InclusionDep {
	type colKey struct{ rel, attr string }
	cols := map[colKey]map[string]bool{}
	uniq := map[colKey]float64{}
	var keys []colKey
	for _, r := range rels {
		for i, a := range r.Schema.Attrs {
			set := map[string]bool{}
			all := map[string]bool{}
			nonNull := 0
			for _, t := range r.Tuples {
				v := t[i]
				if v.IsNull() {
					continue
				}
				s := strings.ToLower(strings.TrimSpace(v.String()))
				if s == "" {
					continue
				}
				nonNull++
				all[s] = true
				if len(set) < match.InstanceSample {
					set[s] = true
				}
			}
			if len(set) == 0 {
				continue
			}
			k := colKey{r.Schema.Name, a.Name}
			cols[k] = set
			uniq[k] = float64(len(all)) / float64(nonNull)
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rel != keys[j].rel {
			return keys[i].rel < keys[j].rel
		}
		return keys[i].attr < keys[j].attr
	})
	var out []InclusionDep
	for _, from := range keys {
		for _, to := range keys {
			if from.rel == to.rel {
				continue
			}
			if uniq[to] < keyLikeThreshold {
				continue
			}
			fs, ts := cols[from], cols[to]
			inter := 0
			for v := range fs {
				if ts[v] {
					inter++
				}
			}
			overlap := float64(inter) / float64(len(fs))
			if overlap >= minOverlap {
				out = append(out, InclusionDep{
					FromRel: from.rel, FromAttr: from.attr,
					ToRel: to.rel, ToAttr: to.attr,
					Overlap: overlap, ToUniqueness: uniq[to],
				})
			}
		}
	}
	return out
}

// TestInclusionDepsDifferential holds join discovery over the folded column
// views to the code that folded every column itself: the sources of generated
// scenarios, and columns past the sample cap, with blanks, nulls, numbers
// spelling strings and case and space variants.
func TestInclusionDepsDifferential(t *testing.T) {
	sets := map[string][]*relation.Relation{}
	for _, n := range []int{40, 200, 600} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties, cfg.Seed = n, seed
			sc := datagen.Generate(cfg)
			sets[fmt.Sprintf("n=%d seed=%d", n, seed)] = []*relation.Relation{sc.Rightmove, sc.OnTheMarket, sc.Deprivation, sc.AddressRef}
		}
	}
	wide := relation.New(relation.NewSchema("wide", "k", "v", "blank"))
	narrow := relation.New(relation.NewSchema("narrow", "k:int", "v", "blank"))
	for i := 0; i < 3*match.InstanceSample; i++ {
		var blank any = "  "
		if i%3 == 0 {
			blank = nil
		}
		wide.MustAppend(fmt.Sprintf(" K%d", i/2), []any{"", "x", nil, "X "}[i%4], blank)
		if i%5 != 0 {
			narrow.MustAppend(i, fmt.Sprint(i%7), "")
		}
	}
	sets["awkward"] = []*relation.Relation{wide, narrow}
	for label, rels := range sets {
		// The reference at overlap 0 filters nothing, as DiscoverInclusionDeps does not.
		want := refDiscoverInclusionDeps(rels, 0)
		got := DiscoverInclusionDeps(rels)
		if len(want) == 0 {
			t.Fatalf("%s: the reference found no dependency at all", label)
		}
		for i := range want {
			if i < len(got) && (math.Float64bits(got[i].Overlap) != math.Float64bits(want[i].Overlap) ||
				math.Float64bits(got[i].ToUniqueness) != math.Float64bits(want[i].ToUniqueness)) {
				t.Fatalf("%s: dependency %d scores %v, the reference %v", label, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: found\n  %v\nthe reference finds\n  %v", label, got, want)
		}
	}
}

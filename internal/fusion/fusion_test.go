package fusion

import (
	"slices"
	"strings"
	"testing"
	"unicode"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// flipCase is s with each rune replaced by the next of its case-folding orbit
// and each invalid byte by U+FFFD: a string EqualFold reads as s, most often
// with other bytes.
func flipCase(s string) string {
	var b strings.Builder
	for _, r := range s {
		b.WriteRune(unicode.SimpleFold(r))
	}
	return b.String()
}

// FuzzFoldEqualFold holds Fold to strings.EqualFold: two strings fold alike
// exactly when EqualFold says they are equal, and a string folds as its case
// flipped does, so that the equal side is reached as often as the other.
func FuzzFoldEqualFold(f *testing.F) {
	for _, seed := range [][2]string{
		{"\u212A", "k"},      // the Kelvin sign
		{"\u017F", "S"},      // the long s
		{"\u03A3", "\u03C3"}, // capital and small sigma
		{"\u03C3", "\u03C2"}, // small and final sigma
		{"\u03A3", "\u03C2"},
		{"\u00DF", "\u1E9E"}, // small and capital sharp s
		{"\xff", "\xfe"},     // EqualFold reads each invalid byte as U+FFFD
		{"\xfe", "\uFFFD"},
		{"1 High St", "1 HIGH ST"},
		{"1 High St", "1 High Rd"},
		{"", ""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := Fold(a) == Fold(b), strings.EqualFold(a, b); got != want {
			t.Fatalf("Fold(%q) = %q and Fold(%q) = %q alike: %v; EqualFold: %v", a, Fold(a), b, Fold(b), got, want)
		}
		if x := flipCase(a); Fold(x) != Fold(a) {
			t.Fatalf("Fold(%q) = %q, but its flipped case %q folds to %q", a, Fold(a), x, Fold(x))
		}
	})
}

func dupRelation() *relation.Relation {
	r := relation.New(relation.NewSchema("u", "street", "postcode", "bedrooms:int", "price:float", "source"))
	r.MustAppend("1 High St", "M1 1AA", 3, 250000.0, "rightmove")
	r.MustAppend("1 HIGH ST", "M1 1AA", 3, nil, "onthemarket") // dup of 0
	r.MustAppend("2 Low Rd", "M1 1AA", 2, 180000.0, "rightmove")
	r.MustAppend("7 Park Ave", "M2 2BB", 4, 320000.0, "onthemarket")
	r.MustAppend("7 Park Ave", "M2 2BB", 14, 320000.0, "rightmove") // dup of 3 (bad beds)
	r.MustAppend("7 Park Ave", "M2 2BB", 4, 320000.0, "zoopla")     // dup of 3
	return r
}

// duplicates groups the rows of r the way the wrangler keys them: by canonical
// postcode block and folded street, a row without either in no group. It
// lists the groups of two or more rows, each ascending, in first-row order.
func duplicates(r *relation.Relation) [][]int {
	si, pi := r.Schema.AttrIndex("street"), r.Schema.AttrIndex("postcode")
	at := map[[2]string]int{}
	var groups [][]int
	for i, tp := range r.Tuples {
		if tp[si].IsNull() || tp[pi].IsNull() {
			continue
		}
		k := [2]string{datagen.CanonicalPostcode(tp[pi].String()), Fold(strings.TrimSpace(tp[si].String()))}
		g, ok := at[k]
		if !ok {
			g, at[k] = len(groups), len(groups)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return slices.DeleteFunc(groups, func(g []int) bool { return len(g) < 2 })
}

func TestDetectDuplicatesClusters(t *testing.T) {
	got := duplicates(dupRelation())
	if want := [][]int{{0, 1}, {3, 4, 5}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("duplicates = %v, want %v", got, want)
	}
}

func TestDetectDuplicatesBlockingPreventsComparison(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "street", "postcode"))
	r.MustAppend("1 Same St", "M1 1AA")
	r.MustAppend("1 Same St", "M9 9ZZ") // identical street, different block
	if got := duplicates(r); len(got) != 0 {
		t.Fatalf("cross-block rows must not be duplicates: %v", got)
	}
}

func TestDetectDuplicatesNullBlockSkipped(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "street", "postcode"))
	r.MustAppend("1 Same St", nil)
	r.MustAppend("1 Same St", nil)
	if got := duplicates(r); len(got) != 0 {
		t.Fatalf("rows without a block opt out: %v", got)
	}
}

// TestFusePreservesNonClustered: a row with no duplicate votes alone, and
// fuses into itself, whatever the trust.
func TestFusePreservesNonClustered(t *testing.T) {
	r := dupRelation()
	trust := map[string]float64{"rightmove": 0.2, "onthemarket": 0.9}
	for i, tp := range r.Tuples {
		for _, tr := range []map[string]float64{nil, trust} {
			fused := Vote(rows(r, i), r.Schema.AttrIndex("source"), tr)
			if !slices.EqualFunc(fused, tp, relation.Value.Same) {
				t.Fatalf("row %d alone fused to %v, want %v", i, fused, tp)
			}
		}
	}
}

// rows is the given rows of r.
func rows(r *relation.Relation, at ...int) []relation.Tuple {
	out := make([]relation.Tuple, len(at))
	for j, i := range at {
		out[j] = r.Tuples[i]
	}
	return out
}

func TestFuseVotingResolvesBedroomConflict(t *testing.T) {
	r := dupRelation()
	// The 7 Park Ave rows: bedrooms 4,14,4 → 4 wins by vote.
	fused := Vote(rows(r, 3, 4, 5), -1, nil)
	if fused[r.Schema.AttrIndex("bedrooms")].IntVal() != 4 {
		t.Fatalf("vote should pick 4 bedrooms, got %v", fused)
	}
}

func TestFuseVotingFillsNullFromOtherMember(t *testing.T) {
	r := dupRelation()
	fused := Vote(rows(r, 1, 0), -1, nil)
	if p := fused[r.Schema.AttrIndex("price")]; p.IsNull() {
		t.Fatal("price should be filled from the rightmove duplicate")
	}
}

func TestFuseTrustWeighted(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "beds:int", "source"))
	r.MustAppend(14, "rightmove")
	r.MustAppend(3, "onthemarket")
	trust := map[string]float64{"rightmove": 0.2, "onthemarket": 0.9}
	if fused := Vote(r.Tuples, 1, trust); fused[0].IntVal() != 3 {
		t.Fatalf("trusted source should win: %v", fused)
	}
	// Flip the trust and the other value wins.
	trust = map[string]float64{"rightmove": 0.9, "onthemarket": 0.2}
	if fused := Vote(r.Tuples, 1, trust); fused[0].IntVal() != 14 {
		t.Fatalf("flipped trust should flip the winner: %v", fused)
	}
	// A source the trust does not name weighs 1, as every row does without it.
	trust = map[string]float64{"rightmove": 0.5}
	if fused := Vote(r.Tuples, 1, trust); fused[0].IntVal() != 3 {
		t.Fatalf("an untrusted source should weigh 1: %v", fused)
	}
}

func TestFuseAllNullColumnStaysNull(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "a", "b"))
	r.MustAppend("x", nil)
	r.MustAppend("x", nil)
	if fused := Vote(r.Tuples, -1, nil); !fused[1].IsNull() {
		t.Fatal("all-null column must fuse to null")
	}
}

func TestScenarioCrossPortalDuplicates(t *testing.T) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 200
	sc := datagen.Generate(cfg)

	// Union the two portals into target-ish shape with provenance.
	u := relation.New(relation.NewSchema("u", "street", "postcode", "source"))
	rmSi := sc.Rightmove.Schema.AttrIndex("street")
	rmPi := sc.Rightmove.Schema.AttrIndex("postcode")
	for _, tp := range sc.Rightmove.Tuples {
		u.Tuples = append(u.Tuples, relation.Tuple{tp[rmSi], tp[rmPi], relation.String("rightmove")})
	}
	otSi := sc.OnTheMarket.Schema.AttrIndex("address_line")
	otPi := sc.OnTheMarket.Schema.AttrIndex("post_code")
	for _, tp := range sc.OnTheMarket.Tuples {
		u.Tuples = append(u.Tuples, relation.Tuple{tp[otSi], tp[otPi], relation.String("onthemarket")})
	}
	groups := duplicates(u)
	for _, g := range groups {
		if v := Vote(rows(u, g...), 2, nil); v[0].IsNull() || v[1].IsNull() {
			t.Fatalf("a property's fused row lost its street or postcode: %v", v)
		}
	}
	if len(groups) == 0 {
		t.Fatal("overlapping portals must produce duplicate listings that fold alike")
	}
}

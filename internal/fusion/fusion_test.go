package fusion

import (
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// sameStreet scores two tuples 1 when their streets are equal after case and
// space folding, else 0: the identity the wrangler fuses on.
func sameStreet(a, b relation.Tuple, schema relation.Schema) float64 {
	i := schema.AttrIndex("street")
	if a[i].IsNull() || b[i].IsNull() {
		return 0
	}
	if strings.EqualFold(strings.TrimSpace(a[i].String()), strings.TrimSpace(b[i].String())) {
		return 1
	}
	return 0
}

// blocksOf is the block of every row of r.
func blocksOf(r *relation.Relation, key BlockingKey) []string {
	out := make([]string, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = key(t, r.Schema)
	}
	return out
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

func TestDetectDuplicatesClusters(t *testing.T) {
	r := dupRelation()
	clusters := DetectDuplicates(r, blocksOf(r, BlockByAttr("postcode", nil)), sameStreet, 1)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if len(clusters[0]) != 2 || clusters[0][0] != 0 || clusters[0][1] != 1 {
		t.Fatalf("first cluster = %v", clusters[0])
	}
	if len(clusters[1]) != 3 {
		t.Fatalf("second cluster = %v", clusters[1])
	}
}

func TestDetectDuplicatesBlockingPreventsComparison(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "street", "postcode"))
	r.MustAppend("1 Same St", "M1 1AA")
	r.MustAppend("1 Same St", "M9 9ZZ") // identical street, different block
	clusters := DetectDuplicates(r, blocksOf(r, BlockByAttr("postcode", nil)), sameStreet, 1)
	if len(clusters) != 0 {
		t.Fatalf("cross-block tuples must not cluster: %v", clusters)
	}
}

func TestDetectDuplicatesNullBlockSkipped(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "street", "postcode"))
	r.MustAppend("1 Same St", nil)
	r.MustAppend("1 Same St", nil)
	clusters := DetectDuplicates(r, blocksOf(r, BlockByAttr("postcode", nil)), sameStreet, 1)
	if len(clusters) != 0 {
		t.Fatalf("null-keyed tuples opt out: %v", clusters)
	}
}

func TestFuseVotingResolvesBedroomConflict(t *testing.T) {
	r := dupRelation()
	clusters := DetectDuplicates(r, blocksOf(r, BlockByAttr("postcode", nil)), sameStreet, 1)
	fused := Fuse(r, clusters, Options{Strategy: Voting})
	if fused.Cardinality() != 3 {
		t.Fatalf("fused size = %d, want 3", fused.Cardinality())
	}
	// The 7 Park Ave cluster: bedrooms 4,14,4 → 4 wins by vote.
	found := false
	bi := fused.Schema.AttrIndex("bedrooms")
	si := fused.Schema.AttrIndex("street")
	for _, tp := range fused.Tuples {
		if tp[si].String() == "7 Park Ave" {
			found = true
			if tp[bi].IntVal() != 4 {
				t.Fatalf("vote should pick 4 bedrooms, got %v", tp[bi])
			}
		}
	}
	if !found {
		t.Fatal("fused tuple missing")
	}
}

func TestFuseVotingFillsNullFromOtherMember(t *testing.T) {
	r := dupRelation()
	clusters := DetectDuplicates(r, blocksOf(r, BlockByAttr("postcode", nil)), sameStreet, 1)
	fused := Fuse(r, clusters, Options{Strategy: Voting})
	pi := fused.Schema.AttrIndex("price")
	si := fused.Schema.AttrIndex("street")
	for _, tp := range fused.Tuples {
		if tp[si].String() == "1 High St" && tp[pi].IsNull() {
			t.Fatal("price should be filled from the rightmove duplicate")
		}
	}
}

func TestFuseMostComplete(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "a", "b", "c"))
	r.MustAppend("x", nil, nil)  // 1 non-null
	r.MustAppend("y", "v2", nil) // 2 non-null -> base tuple
	r.MustAppend(nil, nil, "v3") // fills c
	fused := Fuse(r, [][]int{{0, 1, 2}}, Options{Strategy: MostComplete})
	if fused.Cardinality() != 1 {
		t.Fatalf("size = %d", fused.Cardinality())
	}
	tp := fused.Tuples[0]
	if tp[0].String() != "y" || tp[1].String() != "v2" || tp[2].String() != "v3" {
		t.Fatalf("most-complete fusion = %v", tp)
	}
}

func TestFuseTrustWeighted(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "beds:int", "source"))
	r.MustAppend(14, "rightmove")
	r.MustAppend(3, "onthemarket")
	opts := Options{
		Strategy:       TrustWeighted,
		ProvenanceAttr: "source",
		Trust:          map[string]float64{"rightmove": 0.2, "onthemarket": 0.9},
	}
	fused := Fuse(r, [][]int{{0, 1}}, opts)
	if fused.Tuples[0][0].IntVal() != 3 {
		t.Fatalf("trusted source should win: %v", fused.Tuples[0])
	}
	// Flip the trust and the other value wins.
	opts.Trust = map[string]float64{"rightmove": 0.9, "onthemarket": 0.2}
	fused = Fuse(r, [][]int{{0, 1}}, opts)
	if fused.Tuples[0][0].IntVal() != 14 {
		t.Fatalf("flipped trust should flip the winner: %v", fused.Tuples[0])
	}
}

func TestFusePreservesNonClustered(t *testing.T) {
	r := dupRelation()
	fused := Fuse(r, nil, Options{Strategy: Voting})
	if fused.Cardinality() != r.Cardinality() {
		t.Fatal("no clusters: nothing should merge")
	}
}

func TestFuseAllNullColumnStaysNull(t *testing.T) {
	r := relation.New(relation.NewSchema("u", "a", "b"))
	r.MustAppend("x", nil)
	r.MustAppend("x", nil)
	fused := Fuse(r, [][]int{{0, 1}}, Options{Strategy: Voting})
	if !fused.Tuples[0][1].IsNull() {
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
	norm := func(s string) string { return datagen.CanonicalPostcode(s) }
	clusters := DetectDuplicates(u, blocksOf(u, BlockByAttr("postcode", norm)), sameStreet, 1)
	if len(clusters) == 0 {
		t.Fatal("overlapping portals must produce duplicate clusters")
	}
	fused := Fuse(u, clusters, Options{Strategy: Voting})
	if fused.Cardinality() >= u.Cardinality() {
		t.Fatalf("fusion should shrink the union: %d -> %d", u.Cardinality(), fused.Cardinality())
	}
}

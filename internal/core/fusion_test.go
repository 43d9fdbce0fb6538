package core

import (
	"testing"

	"vada/internal/datagen"
	"vada/internal/mapping"
	"vada/internal/relation"
)

// TestFusionKey: rows are duplicates when their canonical postcode block and
// their street up to case and surrounding space are the same, and a row
// without either is no row's duplicate.
func TestFusionKey(t *testing.T) {
	schema := relation.NewSchema("result", "street", "postcode")
	key := func(street, postcode any) rowKey {
		r := relation.New(schema)
		r.MustAppend(street, postcode)
		return fusionKey(r.Tuples[0], schema)
	}
	if a, b := key("1 High St", "M1 1AA"), key(" 1 HIGH ST", "m11aa"); a != b || a == (rowKey{}) {
		t.Fatalf("keys %v and %v: the same property", a, b)
	}
	if a, b := key("1 Same St", "M1 1AA"), key("1 Same St", "M9 9ZZ"); a == b {
		t.Fatalf("the same street in two blocks shares key %v", a)
	}
	for _, k := range []rowKey{key("1 Same St", nil), key(nil, "M1 1AA"), key("1 Same St", "  ")} {
		if k != (rowKey{}) {
			t.Fatalf("a row without a block or a street has key %v", k)
		}
	}
	if k := fusionKey(relation.Tuple{relation.String("1 Same St")}, relation.NewSchema("r", "street")); k != (rowKey{}) {
		t.Fatalf("a schema without a postcode gives key %v", k)
	}
}

// TestFusionGroupsByKey: the rows that share a key fuse into one row at the
// first one's place, by vote, and every other row is kept as it is.
func TestFusionGroupsByKey(t *testing.T) {
	r := relation.New(relation.NewSchema("result", "street", "postcode", "bedrooms:int", "price:float", "_src"))
	r.MustAppend("1 High St", "M1 1AA", 3, 250000.0, "rightmove")
	r.MustAppend("1 HIGH ST", "M1 1AA", 3, nil, "onthemarket") // dup of 0
	r.MustAppend("2 Low Rd", "M1 1AA", 2, 180000.0, "rightmove")
	r.MustAppend("7 Park Ave", "M2 2BB", 4, 320000.0, "onthemarket")
	r.MustAppend("7 Park Ave", "M2 2BB", 14, 320000.0, "rightmove") // dup of 3 (bad beds)
	r.MustAppend("1 High St", nil, 5, 99000.0, "zoopla")            // no block
	r.MustAppend("7 Park Ave", "M2 2BB", 4, 320000.0, "zoopla")     // dup of 3
	_, out, err := (*fusionMemo)(nil).fuse(fusionInput{results: []*relation.Relation{r}, name: "result"})
	if err != nil {
		t.Fatal(err)
	}
	if out.clusters != 2 || out.union != 7 {
		t.Fatalf("%d clusters of %d rows, want 2 of 7", out.clusters, out.union)
	}
	want := relation.New(r.Schema)
	want.MustAppend("1 High St", "M1 1AA", 3, 250000.0, "rightmove")
	want.MustAppend("2 Low Rd", "M1 1AA", 2, 180000.0, "rightmove")
	want.MustAppend("7 Park Ave", "M2 2BB", 4, 320000.0, "onthemarket")
	want.MustAppend("1 High St", nil, 5, 99000.0, "zoopla")
	if !out.result.Identical(want) {
		t.Fatalf("fused:\n%v\nwant:\n%v", out.result, want)
	}
	if &out.result.Tuples[1][0] != &r.Tuples[2][0] {
		t.Fatal("a row with no duplicate should be kept, not copied")
	}
}

// BenchmarkFusion times duplicate fusion cold, with nothing remembered, over
// the two portals' listings at n=400: their union, the grouping by key and a
// vote per group.
func BenchmarkFusion(b *testing.B) {
	cfg := datagen.DefaultConfig()
	cfg.NProperties = 400
	sc := datagen.Generate(cfg)
	listings := func(portal *relation.Relation, street, postcode, beds string) *relation.Relation {
		out := relation.New(relation.NewSchema("result", "street", "postcode", "bedrooms", mapping.ProvenanceAttr))
		si, pi, bi := portal.Schema.AttrIndex(street), portal.Schema.AttrIndex(postcode), portal.Schema.AttrIndex(beds)
		for _, t := range portal.Tuples {
			out.Tuples = append(out.Tuples, relation.Tuple{t[si], t[pi], t[bi], relation.String(portal.Schema.Name)})
		}
		return out
	}
	in := fusionInput{name: "result", results: []*relation.Relation{
		listings(sc.Rightmove, "street", "postcode", "bedrooms"),
		listings(sc.OnTheMarket, "address_line", "post_code", "num_beds"),
	}}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, out, err := (*fusionMemo)(nil).fuse(in)
		if err != nil || out.clusters == 0 {
			b.Fatalf("%d clusters: %v", out.clusters, err)
		}
	}
}

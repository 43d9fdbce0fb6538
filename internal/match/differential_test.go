package match

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// sameMatches fails unless got is want match for match: same order, same
// names, and scores equal as bit patterns — they feed SelectOneToOne's
// threshold and sort order, where an ulp can flip a mapping.
func sameMatches(t *testing.T, label string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: match %d (%s.%s≈%s) scores %v (%#x), reference %v (%#x)", label, i,
				w.SourceRel, w.SourceAttr, w.TargetAttr, g.Score, math.Float64bits(g.Score), w.Score, math.Float64bits(w.Score))
		}
		g.Score, w.Score = 0, 0
		if g != w {
			t.Fatalf("%s: match %d is %v, reference %v", label, i, g, w)
		}
	}
}

// column builds a one-attribute relation from Go values.
func column(name string, vals ...any) *relation.Relation {
	r := relation.New(relation.NewSchema(name, "v"))
	for _, v := range vals {
		r.MustAppend(v)
	}
	return r
}

// renamed is r with its attributes renamed by alias, sharing r's rows.
func renamed(r *relation.Relation, alias map[string]string) *relation.Relation {
	schema := r.Schema.WithName(r.Schema.Name)
	for i, a := range schema.Attrs {
		if n, ok := alias[a.Name]; ok {
			schema.Attrs[i].Name = n
		}
	}
	return &relation.Relation{Schema: schema, Tuples: r.Tuples}
}

// instancesOf is what the pairwise reference is handed for the data-context
// relations refs: per attribute, the columns of the relations that have it,
// one after the other.
func instancesOf(refs ...*relation.Relation) map[string][]relation.Value {
	out := map[string][]relation.Value{}
	for _, r := range refs {
		for _, a := range r.Schema.Attrs {
			col, _ := r.Column(a.Name)
			out[a.Name] = append(out[a.Name], col...)
		}
	}
	return out
}

// TestInstanceDifferential holds the profiled matcher to the pairwise code
// it replaced: every source of generated scenarios against the address
// reference, with target profiles shared across the sources as the
// transducer shares them, and the columns the scenarios do not have.
func TestInstanceDifferential(t *testing.T) {
	sizes := []int{40, 100, 600}
	if testing.Short() {
		sizes = []int{40, 100}
	}
	aliases := []map[string]string{nil, {"street": "address_line", "city": "street"}}
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties, cfg.Seed = n, seed
			sc := datagen.Generate(cfg)
			for ai, alias := range aliases {
				ref := renamed(sc.AddressRef, alias)
				inst := instancesOf(ref)
				shared := ProfileInstances(ref)
				for _, src := range []*relation.Relation{sc.Rightmove, sc.OnTheMarket, sc.Deprivation} {
					label := fmt.Sprintf("n=%d seed=%d alias=%d %s", n, seed, ai, src.Schema.Name)
					want := refMatchInstances(src, inst)
					if len(want) == 0 {
						t.Fatalf("%s: reference found nothing to score", label)
					}
					sameMatches(t, label, ProfileInstances(ref).Match(src), want)
					sameMatches(t, label+" shared", shared.Match(src), want)
				}
			}
		}
	}

	many := make([]any, 0, 3*InstanceSample)
	for i := 0; i < 3*InstanceSample; i++ {
		many = append(many, fmt.Sprintf("%d oak road", i/2)) // each value twice
	}
	tail := make([]any, 0, 2*InstanceSample)
	for i := 2 * InstanceSample; i > 0; i-- {
		tail = append(tail, fmt.Sprintf("%d oak road", i)) // overlaps many past its sample
	}
	columns := map[string]*relation.Relation{
		"empty":     column("empty"),
		"nulls":     column("nulls", nil, nil, nil),
		"blanks":    column("blanks", "", "  ", nil),
		"duplicate": column("duplicate", "M1 1AA", "m1 1aa", " M1 1AA ", "M1 1AA"),
		"many":      column("many", many...),
		"tail":      column("tail", tail...),
		"prefixed":  column("prefixed", "12 high street", "7 park lane", "3a mill row", "100", "£1,250", "0x1p4 way"),
		"prices":    column("prices", 125000, 99950.5, "£1,250", "250,000", "n/a"),
		"small":     column("small", 1, 2, 3, 4, 2, 1),
		"one":       column("one", 7, 7, 7),
		"nan":       column("nan", "nan close", "nancy road", "infirmary rd", "inf", "-inf", "+5", "1e3"),
		"signs":     column("signs", "-0", "0", "+0", "-0.0"),
		"unicode":   column("unicode", "Żółć 12", "ÀB 9", "日本 1-2-3", "\x00nul", "bad\xffbyte", "ǅ"),
		"mixed":     column("mixed", true, 2, 2.5, "2", "TRUE", nil, "M1 1AA", "12 High St", "a-b_c", "x@y.z"),
	}
	// Each column a target attribute of its own, and all of them one target
	// attribute "v", their columns one after the other.
	names := slices.Sorted(maps.Keys(columns))
	var own, joined []*relation.Relation
	for _, name := range names {
		own = append(own, renamed(columns[name], map[string]string{"v": name}))
		joined = append(joined, columns[name])
	}
	for label, refs := range map[string][]*relation.Relation{"own": own, "joined": joined} {
		inst := instancesOf(refs...)
		shared := ProfileInstances(refs...)
		for _, name := range names {
			want := refMatchInstances(columns[name], inst)
			sameMatches(t, label+" "+name, shared.Match(columns[name]), want)
		}
	}
}

// fuzzColumn turns fuzz text into a column, one cell per line: "~" is null,
// what parses as an integer or a float is one, the rest are strings.
func fuzzColumn(name, text string) *relation.Relation {
	r := relation.New(relation.NewSchema(name, "v"))
	for _, cell := range strings.Split(text, "\n") {
		var v any = cell
		if cell == "~" {
			v = nil
		} else if i, err := strconv.ParseInt(cell, 10, 64); err == nil {
			v = i
		} else if f, err := strconv.ParseFloat(cell, 64); err == nil {
			v = f
		}
		r.MustAppend(v)
	}
	return r
}

// FuzzInstanceDifferential holds the profiled matcher to the pairwise
// reference over two generated columns, each matched against both.
func FuzzInstanceDifferential(f *testing.F) {
	f.Add("12 High Street\n7 Park Lane\n~\n12 high street", "12 high street\n9 Mill Row\n\nM1 1AA")
	f.Add("125000\n£1,250\n99950.5\nn/a", "1\n2\n3\n250,000")
	f.Add("nan close\ninfirmary rd\n-0\n1e3", "Nan\n+Inf\n0\n0x10")
	f.Add("M1 1AA\nm1 1aa\nM5 2BB\nLS1 1AA\nab-1\na_b\nx@y\n9.5\n#7", "M1 1AA\nM5 2BB\nOL1 4XY")
	f.Add("Żółć 12\nbad\xffbyte\n\x00", "żółć 12\n日本 1-2-3")
	f.Add("~\n~", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := fuzzColumn("a", a), fuzzColumn("b", b)
		refs := []*relation.Relation{renamed(ra, map[string]string{"v": "a"}), renamed(rb, map[string]string{"v": "b"})}
		inst := instancesOf(refs...)
		shared := ProfileInstances(refs...)
		for _, src := range []*relation.Relation{ra, rb} {
			want := refMatchInstances(src, inst)
			sameMatches(t, src.Schema.Name, ProfileInstances(refs...).Match(src), want)
			sameMatches(t, src.Schema.Name+" shared", shared.Match(src), want)
		}
		// Both columns one target attribute, in either order.
		for _, refs := range [][]*relation.Relation{{ra, rb}, {rb, ra}} {
			want := refMatchInstances(ra, instancesOf(refs...))
			sameMatches(t, "joined", ProfileInstances(refs...).Match(ra), want)
		}
	})
}

// TestInstanceScoresDeterministic pins that a score is a function of its two
// columns: the shape cosine used to sum in map-iteration order, and over six
// shapes of unequal frequency the order reaches the last bits.
func TestInstanceScoresDeterministic(t *testing.T) {
	var src, tgt []any
	shapes := []string{"%d high street", "m%d 1aa", "%d", "£%d,000", "flat %d/b", "%d-%d", "no.%d"}
	counts := []int{1, 2, 3, 5, 7, 11, 13} // values per shape: at the parent, two scores an ulp apart
	for i, shape := range shapes {
		for k := 0; k < counts[i]; k++ {
			v := strings.ReplaceAll(shape, "%d", strconv.Itoa(10*k+i))
			src = append(src, v)
			if (k+i)%2 != 0 {
				tgt = append(tgt, v+"x")
			}
		}
	}
	source, target := column("source", src...), column("target", tgt...)
	if p := profileColumns([]*relation.Folded{target.Folded(0)}); len(p.shapes) < 6 {
		t.Fatalf("fixture has %d shapes, want at least 6", len(p.shapes))
	}
	seen := map[uint64]int{}
	for i := 0; i < 500; i++ {
		// Fresh relations each time: views built once would score once.
		ms := ProfileInstances(target.Clone()).Match(source.Clone())
		if len(ms) != 1 {
			t.Fatalf("%d matches, want 1", len(ms))
		}
		seen[math.Float64bits(ms[0].Score)]++
	}
	if len(seen) != 1 {
		t.Fatalf("500 calls over one column pair gave %d different scores: %v", len(seen), seen)
	}
}

// scenarioNames are the attribute names of every scenario schema.
func scenarioNames() []string {
	var names []string
	for _, s := range []relation.Schema{datagen.TargetSchema(), datagen.RightmoveSchema(), datagen.OnTheMarketSchema(),
		datagen.DeprivationSchema(), datagen.AddressSchema()} {
		names = append(names, s.AttrNames()...)
	}
	return names
}

// samePreparedScore fails unless the prepared scorer gives the pair the
// reference NameSimilarity's score, bit for bit.
func samePreparedScore(t *testing.T, a, b string) {
	t.Helper()
	pa, pb := prepareName(a), prepareName(b)
	if got, want := pa.similarity(&pb), NameSimilarity(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("similarity(%q, %q) = %v, reference %v", a, b, got, want)
	}
}

// TestSchemaMatchingDifferential holds MatchSchemas to the reference name
// similarity over every pair of scenario schemas.
func TestSchemaMatchingDifferential(t *testing.T) {
	schemas := []relation.Schema{datagen.TargetSchema(), datagen.RightmoveSchema(), datagen.OnTheMarketSchema(),
		datagen.DeprivationSchema(), datagen.AddressSchema(), relation.NewSchema("empty")}
	for _, src := range schemas {
		for _, tgt := range schemas {
			var want []Match
			for _, sa := range src.Attrs {
				for _, ta := range tgt.Attrs {
					want = append(want, Match{SourceRel: src.Name, SourceAttr: sa.Name, TargetAttr: ta.Name,
						Score: NameSimilarity(sa.Name, ta.Name), Method: "name"})
				}
			}
			sameMatches(t, src.Name+"/"+tgt.Name, MatchSchemas(src, tgt), want)
		}
	}
}

// TestNameScoringAllocations pins that a pair is scored from two prepared
// names without allocating.
func TestNameScoringAllocations(t *testing.T) {
	a, b := prepareName("asking_price"), prepareName("AskingPriceGBP")
	if allocs := testing.AllocsPerRun(100, func() { _ = a.similarity(&b) }); allocs != 0 {
		t.Fatalf("scoring a prepared pair allocates %.0f times, want 0", allocs)
	}
}

// FuzzNameSimilarity gives the prepared scorer and the reference
// NameSimilarity the same pair of names.
func FuzzNameSimilarity(f *testing.F) {
	names := scenarioNames()
	for _, a := range names {
		for _, b := range names {
			f.Add(a, b)
		}
	}
	f.Add("", "")
	f.Add("num_beds", "bedrooms")
	f.Add("ÅskingPrice", "asking\xffprice")
	f.Add(strings.Repeat("ab_", 40), strings.Repeat("ba", 50))
	f.Fuzz(func(t *testing.T, a, b string) {
		samePreparedScore(t, a, b)
		samePreparedScore(t, b, a)
	})
}

package cfd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vada/internal/datagen"
	"vada/internal/relation"
)

// sameCFDs fails unless got is want: the same dependencies in the same order
// (patterns and their values DeepEqual), supports and confidences bit for bit.
func sameCFDs(t *testing.T, label string, got, want []CFD) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: mined %d CFDs, the reference %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Support) != math.Float64bits(w.Support) || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
			t.Fatalf("%s: CFD %d scores %v/%v, the reference %v/%v", label, i, g.Support, g.Confidence, w.Support, w.Confidence)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: CFD %d is\n  %v %v\nthe reference has\n  %v %v", label, i, g, g.Pattern, w, w.Pattern)
		}
	}
}

// sameViolations fails unless, for every CFD, the encoded relation finds the
// reference's violations — same groups in the same order, same rows in each —
// whether asked one CFD at a time or for all of them over one encoding, and
// the consistency rates agree bit for bit.
func sameViolations(t *testing.T, label string, rel *relation.Relation, cfds []CFD) (found int) {
	t.Helper()
	enc := encode(rel)
	for i, c := range cfds {
		want := ReferenceViolations(rel, c)
		if got := Violations(rel, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CFD %d %v: violations\n  %v\nthe reference finds\n  %v", label, i, c, got, want)
		}
		if got := enc.violations(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CFD %d %v over a shared encoding: violations\n  %v\nthe reference finds\n  %v", label, i, c, got, want)
		}
		found += len(want)
	}
	if got, want := ConsistencyRate(rel, cfds), ReferenceConsistencyRate(rel, cfds); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: consistency %v, the reference %v", label, got, want)
	}
	return found
}

// awkward is a relation built to part Value.Key from Value.Equal and from
// display: ints and floats that are equal as numbers, a number and its
// spelling, −0 and 0, nulls in every column, and groups whose first row is
// unusable for some RHS.
func awkward() *relation.Relation {
	r := relation.New(relation.NewSchema("awkward", "a", "b", "c:float", "d"))
	for _, row := range [][]any{
		{1, "x", 1.0, nil}, {1.0, "x", 1.0, "p"}, {1, "x", 1.0, "p"}, {1, "x", 2.0, "p"},
		{"1", "y", 0.0, "q"}, {"1", "y", math.Copysign(0, -1), "q"}, {"1", "y", 0.0, "q"},
		{nil, "y", 3.0, "q"}, {2, nil, 3.0, "q"}, {2, "z", nil, "q"}, {2, "z", 3.0, "r"},
		{2, "z", 3.0, "r"}, {2, "z", 3.0, "r"}, {true, "z", 3.0, "r"}, {true, "z", 3.0, "r"}, {true, "z", 3.0, "r"},
	} {
		r.MustAppend(row...)
	}
	return r
}

// defaultMineBounds are the bounds Mine mines within.
var defaultMineBounds = mineBounds{maxLHS, minSupport, minConfidence, minConstantSupport, maxConstantCFDs}

// mineBoundSets are the bounds the differential tests mine within: the
// constants, and a permissive set with a maxLHS of 3 so that small relations
// yield variable CFDs with LHS of one, two and three attributes and constant
// ones from pairs of rows.
func mineBoundSets() []mineBounds {
	return []mineBounds{
		defaultMineBounds,
		{maxLHS: 3, minSupport: 0.1, minConfidence: 0.5, minConstantSupport: 2, maxConstantCFDs: 50},
		{maxLHS: 1, minSupport: 0, minConfidence: 0, minConstantSupport: 1, maxConstantCFDs: 1000},
	}
}

// TestMineDifferential holds Mine over column codes to the string-keyed Mine
// it replaced, on the address references of generated scenarios and on a
// relation of awkward values.
func TestMineDifferential(t *testing.T) {
	rels := map[string]*relation.Relation{"awkward": awkward(), "empty": relation.New(awkward().Schema)}
	for _, n := range []int{40, 200, 600} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := datagen.DefaultConfig()
			cfg.NProperties, cfg.Seed = n, seed
			rels[fmt.Sprintf("n=%d seed=%d", n, seed)] = datagen.Generate(cfg).AddressRef
		}
	}
	mined := 0
	for label, rel := range rels {
		for i, b := range mineBoundSets() {
			want := ReferenceMine(rel, b)
			sameCFDs(t, fmt.Sprintf("%s bounds %d", label, i), mine(rel, b), want)
			mined += len(want)
		}
	}
	if mined < 1000 {
		t.Fatalf("the reference mined %d CFDs in all: the test compares too little", mined)
	}
}

// TestViolationsDifferential holds Violations and ConsistencyRate over column
// codes to the per-CFD, string-keyed code they replaced: CFDs mined from a
// clean reference checked against noisy relations of the same shape, CFDs
// with constant and wildcard cells mixed, with no LHS, and naming attributes
// the relation lacks.
func TestViolationsDifferential(t *testing.T) {
	found := 0
	for seed := int64(1); seed <= 5; seed++ {
		cfg := datagen.DefaultConfig()
		cfg.NProperties, cfg.Seed = 200, seed
		sc := datagen.Generate(cfg)
		cfds := Mine(sc.AddressRef)
		noisy := sc.AddressRef.Clone()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < len(noisy.Tuples)/5; i++ {
			row, col := rng.Intn(len(noisy.Tuples)), rng.Intn(noisy.Schema.Arity())
			noisy.Tuples[row][col] = noisy.Tuples[rng.Intn(len(noisy.Tuples))][col]
			if i%7 == 0 {
				noisy.Tuples[row][col] = relation.Null()
			}
		}
		found += sameViolations(t, fmt.Sprintf("seed %d", seed), noisy, cfds)
	}

	rel := awkward()
	cfds := ReferenceMine(rel, mineBoundSets()[1])
	any := PatternCell{Any: true}
	cfds = append(cfds,
		CFD{LHS: []string{"a"}, RHS: "c", Pattern: map[string]PatternCell{"a": {Value: relation.Float(1)}, "c": any}},
		CFD{LHS: []string{"a", "b"}, RHS: "d", Pattern: map[string]PatternCell{"a": any, "b": {Value: relation.String("z")}, "d": any}},
		CFD{LHS: []string{"b"}, RHS: "a", Pattern: map[string]PatternCell{"b": any, "a": any}},
		CFD{LHS: []string{"b"}, RHS: "c", Pattern: map[string]PatternCell{"b": any, "c": any}},
		CFD{LHS: []string{"a", "b", "d"}, RHS: "c", Pattern: map[string]PatternCell{"a": any, "b": any, "d": any, "c": any}},
		CFD{RHS: "d", Pattern: map[string]PatternCell{"d": any}},
		CFD{LHS: []string{"ghost"}, RHS: "d", Pattern: map[string]PatternCell{"ghost": any, "d": any}},
		CFD{LHS: []string{"a"}, RHS: "ghost", Pattern: map[string]PatternCell{"a": any, "ghost": any}},
	)
	found += sameViolations(t, "awkward", rel, cfds)
	sameViolations(t, "empty", relation.New(rel.Schema), cfds)
	if found < 100 {
		t.Fatalf("the reference found %d violations in all: the test compares too little", found)
	}
}

// FuzzMineDifferential mines random small relations — few distinct values per
// column, so that groups form; nulls, ints, floats equal to them, strings
// spelling them, booleans — under random options with both implementations,
// and checks every mined CFD's violations on a second random relation.
func FuzzMineDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(2), uint8(2))
	f.Add(int64(2), uint8(40), uint8(4), uint8(3), uint8(3))
	f.Add(int64(3), uint8(0), uint8(2), uint8(1), uint8(1))
	f.Add(int64(4), uint8(200), uint8(5), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, arity, spread, maxLHS uint8) {
		rng := rand.New(rand.NewSource(seed))
		arity, spread, maxLHS = 1+arity%5, 1+spread%8, maxLHS%4
		specs := make([]string, arity)
		for i := range specs {
			specs[i] = fmt.Sprintf("a%d", i)
		}
		random := func(n int) *relation.Relation {
			r := relation.New(relation.NewSchema("fuzzed", specs...))
			for ; n > 0; n-- {
				row := make([]any, arity)
				for i := range row {
					switch v := rng.Intn(int(spread)); rng.Intn(6) {
					case 0:
						row[i] = nil
					case 1:
						row[i] = float64(v)
					case 2:
						row[i] = fmt.Sprint(v)
					case 3:
						row[i] = v%2 == 0
					default:
						row[i] = v
					}
				}
				r.MustAppend(row...)
			}
			return r
		}
		b := mineBounds{maxLHS: int(maxLHS), minSupport: rng.Float64() / 2, minConfidence: rng.Float64(),
			minConstantSupport: 1 + rng.Intn(3), maxConstantCFDs: rng.Intn(60)}
		rel := random(int(rows))
		want := ReferenceMine(rel, b)
		sameCFDs(t, "fuzzed", mine(rel, b), want)
		sameViolations(t, "fuzzed", random(int(rows)), want)
	})
}

package relation

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// viewsFixture is a relation whose columns part the two views: identity
// palette values (numbers equal across kinds, both zeros, NaNs, separator
// bytes), spellings that fold alike, blanks that fold to "", and nulls.
func viewsFixture(rows int, seed int64) *Relation {
	rng := rand.New(rand.NewSource(seed))
	spellings := []Value{String("M1 1AA"), String(" m1 1aa"), String("M1 1AA "), String("Żółć"), String("żółć"),
		String(""), String("  "), String("2"), String("TRUE"), Int(2), Float(2), Bool(true), Int(-12),
		String("-12"), Float(1e21), Float(math.Inf(1)), Float(math.NaN()), String(" NaN"), String("+inf"),
		String("bad\xffBYTE"), String("ǅ"), String("İstanbul"), String("\tTab\n"), Float(-0.5)}
	r := New(NewSchema("fixture", "id", "palette", "spelling"))
	for i := 0; i < rows; i++ {
		r.Tuples = append(r.Tuples, Tuple{
			Int(int64(i % 7)),
			identityPalette[rng.Intn(len(identityPalette))],
			spellings[rng.Intn(len(spellings))],
		})
	}
	return r
}

// checkViewsOf holds both views of every column of r to a recomputation row by
// row: a row's exact code is the number of the first row with the same value
// (Value.Same) among the distinct ones before it, its folded code likewise by
// Fold, and null is −1 in both.
func checkViewsOf(t *testing.T, r *Relation) {
	t.Helper()
	for i := range r.Schema.Attrs {
		exact, folded := r.Exact(i), r.Folded(i)
		if len(exact.Codes) != len(r.Tuples) || len(folded.Codes) != len(r.Tuples) {
			t.Fatalf("column %d: %d and %d codes for %d rows", i, len(exact.Codes), len(folded.Codes), len(r.Tuples))
		}
		var values []Value
		var strs []string
		var first []int32
		for row, tup := range r.Tuples {
			v := tup[i]
			wantExact, wantFolded := int32(-1), int32(-1)
			if !v.IsNull() {
				wantExact = int32(slices.IndexFunc(values, v.Same))
				if wantExact < 0 {
					wantExact = int32(len(values))
					values = append(values, v)
				}
				s := strings.ToLower(strings.TrimSpace(v.String()))
				wantFolded = int32(slices.Index(strs, s))
				if wantFolded < 0 {
					wantFolded = int32(len(strs))
					strs = append(strs, s)
					first = append(first, int32(row))
				}
			}
			if exact.Codes[row] != wantExact || folded.Codes[row] != wantFolded {
				t.Fatalf("column %d row %d (%#v): codes %d/%d, want %d/%d", i, row, v,
					exact.Codes[row], folded.Codes[row], wantExact, wantFolded)
			}
		}
		if exact.N != len(values) {
			t.Fatalf("column %d: %d distinct values, want %d", i, exact.N, len(values))
		}
		if !slices.Equal(folded.Values, strs) || !slices.Equal(folded.First, first) || len(folded.Index) != len(strs) {
			t.Fatalf("column %d: folded %q first %v, want %q first %v", i, folded.Values, folded.First, strs, first)
		}
		for c, s := range strs {
			if folded.Index[s] != int32(c) {
				t.Fatalf("column %d: Index[%q] = %d, want %d", i, s, folded.Index[s], c)
			}
		}
		if r.Exact(i) != exact || r.Folded(i) != folded {
			t.Fatalf("column %d: a second request built the view again", i)
		}
	}
}

func TestViewsAreRecomputation(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkViewsOf(t, viewsFixture(int(seed*seed), seed))
	}
	checkViewsOf(t, New(NewSchema("empty", "a")))
	nan := New(NewSchema("nan", "f"))
	for _, f := range []float64{0, math.NaN(), math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), 0} {
		nan.Tuples = append(nan.Tuples, Tuple{Float(f)})
	}
	checkViewsOf(t, nan)
	if got := nan.Exact(0).Codes; !slices.Equal(got, []int32{0, 1, 2, 1, 0}) {
		t.Fatalf("0, NaN, -0, NaN, 0 coded %v: NaNs are one value, 0 and -0 two", got)
	}
}

// TestFoldedCode holds Code to Fold and the index, and pins that it does not
// allocate for ASCII strings and numbers.
func TestFoldedCode(t *testing.T) {
	r := viewsFixture(300, 5)
	for i := range r.Schema.Attrs {
		f := r.Folded(i)
		for _, col := range []*Relation{r, viewsFixture(50, 6)} {
			for _, tup := range col.Tuples {
				want, ok := f.Index[strings.ToLower(strings.TrimSpace(tup[i].String()))]
				if !ok || tup[i].IsNull() {
					want = -1
				}
				if got := f.Code(tup[i]); got != want {
					t.Fatalf("column %d: Code(%#v) = %d, want %d", i, tup[i], got, want)
				}
			}
		}
	}
	f := r.Folded(2)
	for _, v := range []Value{String("M1 1AA"), Int(-12), Float(1e21), String("absent")} {
		if n := testing.AllocsPerRun(20, func() { f.Code(v) }); n != 0 {
			t.Errorf("Code(%#v) allocates %v times", v, n)
		}
	}
}

func TestFoldedHead(t *testing.T) {
	for _, tc := range []struct {
		column []string
		n      int
		head   []string
		last   int32
	}{
		{[]string{"a", "b", "c"}, 2, []string{"a", "b"}, 1},
		{[]string{"a", " ", "B", "c"}, 2, []string{"a", "b"}, 2},
		{[]string{"a", ""}, 5, []string{"a"}, 0},
		{[]string{""}, 5, []string{}, -1},
		{[]string{"a", "b", ""}, 2, []string{"a", "b"}, 1},
		{nil, 3, []string{}, -1},
	} {
		r := New(NewSchema("r", "v"))
		for _, s := range tc.column {
			r.Tuples = append(r.Tuples, Tuple{String(s)})
		}
		head, last := r.Folded(0).Head(tc.n)
		if !slices.Equal(head, tc.head) || last != tc.last {
			t.Errorf("Head(%d) of %q = %q, %d; want %q, %d", tc.n, tc.column, head, last, tc.head, tc.last)
		}
	}
}

// TestViewsShared builds both views of one relation from eight goroutines at
// once (run it with -race): every reader gets the one view built.
func TestViewsShared(t *testing.T) {
	r := viewsFixture(500, 7)
	const readers = 8
	exact := make([][]*Exact, readers)
	folded := make([][]*Folded, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range r.Schema.Attrs {
				i := (k + g) % r.Schema.Arity() // readers start on different columns
				exact[g] = append(exact[g], r.Exact(i))
				folded[g] = append(folded[g], r.Folded(i))
			}
		}()
	}
	wg.Wait()
	for g := 0; g < readers; g++ {
		for k := range r.Schema.Attrs {
			i := (k + g) % r.Schema.Arity()
			if exact[g][k] != r.Exact(i) || folded[g][k] != r.Folded(i) {
				t.Fatalf("reader %d got a view of column %d nobody else did", g, i)
			}
		}
	}
	checkViewsOf(t, r)
}

// TestShallowHasNoViews pins that a relation built from another starts
// without its views, so replacing its rows cannot leave stale codes.
func TestShallowHasNoViews(t *testing.T) {
	r := viewsFixture(10, 3)
	r.Folded(2)
	next := r.Shallow()
	next.Tuples[0] = next.Tuples[0].With(2, String("rewritten"))
	checkViewsOf(t, next)
	checkViewsOf(t, r)
}

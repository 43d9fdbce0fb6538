package relation

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// identityPalette holds the values identity is easy to get wrong on: numbers
// equal across kinds, both zeros, NaNs with different payloads, and strings
// holding the bytes Tuple.Key uses as separators.
var identityPalette = []Value{
	Null(), Int(0), Int(2), Float(2), Float(0), Float(math.Copysign(0, -1)),
	Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(math.Inf(-1)),
	String("a\x1f\x00Sb"), String("c"), String("a"), String("b\x1f\x00Sc"), String(""), String("\x1f"),
	String("2"), Bool(true), Bool(false),
}

// decodeTuple turns fuzz bytes into a tuple: each value is a palette entry, or
// a string or an int taken from the bytes themselves.
func decodeTuple(data []byte) Tuple {
	var t Tuple
	for len(data) > 0 && len(t) < 4 {
		op := data[0]
		data = data[1:]
		switch {
		case op < 0xe0:
			t = append(t, identityPalette[int(op)%len(identityPalette)])
		case op < 0xf0 && len(data) > 0:
			n := min(int(data[0])%6, len(data)-1)
			t = append(t, String(string(data[1:1+n])))
			data = data[1+n:]
		case len(data) > 0:
			t = append(t, Int(int64(int8(data[0]))))
			data = data[1:]
		}
	}
	return t
}

// holdsSeparator reports whether a string of t holds the byte Tuple.Key ends
// each cell with.
func holdsSeparator(t Tuple) bool {
	for _, v := range t {
		if v.Kind() == KindString && strings.IndexByte(v.Str(), '\x1f') >= 0 {
			return true
		}
	}
	return false
}

func sameTuples(t *testing.T, a, b []byte) {
	ta, tb := decodeTuple(a), decodeTuple(b)
	if !ta.Same(ta.Clone()) || ta.Hash() != ta.Clone().Hash() {
		t.Fatalf("%v is not the same as its copy", ta)
	}
	same := ta.Same(tb)
	if same != tb.Same(ta) {
		t.Fatalf("Same is not symmetric on %#v, %#v", ta, tb)
	}
	if same && ta.Hash() != tb.Hash() {
		t.Fatalf("%#v and %#v are the same but hash apart", ta, tb)
	}
	if !holdsSeparator(ta) && !holdsSeparator(tb) {
		if keys := ta.Key() == tb.Key(); keys != same {
			t.Fatalf("%#v, %#v: equal keys %v, Same %v", ta, tb, keys, same)
		}
	}
	tally := NewTally(2)
	*tally.Add(ta) = 1
	if found := tally.Find(tb) != nil; found != same {
		t.Fatalf("a tally holding %#v finds %#v: %v, Same says %v", ta, tb, found, same)
	}
}

// FuzzTupleSame holds Same to what it must be: an equivalence that Hash is
// consistent with, and, whenever no string holds Key's separator, exactly
// what equal Key strings say.
func FuzzTupleSame(f *testing.F) {
	f.Add([]byte{9, 10}, []byte{11, 12}) // the two tuples with one Key
	f.Add([]byte{1}, []byte{4})          // Int(0), Float(0)
	f.Add([]byte{2}, []byte{3})          // Int(2), Float(2)
	f.Add([]byte{4}, []byte{5})          // 0, -0
	f.Add([]byte{6, 0}, []byte{7, 0})    // two NaN payloads
	f.Add([]byte{0xe1, 2, 'a', 'b'}, []byte{0xe1, 1, 'a', 0xe1, 1, 'b'})
	f.Add([]byte{0xf0, 2}, []byte{2}) // Int(2), Int(2)
	f.Fuzz(sameTuples)
}

func TestTupleSame(t *testing.T) {
	for i, a := range identityPalette {
		for j, b := range identityPalette {
			// The palette holds each value once, and its two NaNs are one.
			want := i == j || a.Kind() == KindFloat && b.Kind() == KindFloat && a.FloatVal() != a.FloatVal() && b.FloatVal() != b.FloatVal()
			if got := (Tuple{a}).Same(Tuple{b}); got != want {
				t.Errorf("Same(%#v, %#v) = %v, want %v", a, b, got, want)
			}
		}
	}
	if (Tuple{Int(1)}).Same(Tuple{Int(1), Null()}) {
		t.Error("tuples of different arity are the same")
	}
}

func TestDistinctKeepsFirstOccurrences(t *testing.T) {
	r := New(NewSchema("r", "a", "b"))
	for _, row := range []Tuple{{Int(2), String("x")}, {Float(2), String("x")}, {Int(2), String("x")}, {Float(math.NaN()), Null()},
		{Float(math.Float64frombits(0x7ff8000000000001)), Null()}} {
		r.Tuples = append(r.Tuples, row)
	}
	d := r.Distinct()
	if want := []Tuple{r.Tuples[0], r.Tuples[1], r.Tuples[3]}; !slices.EqualFunc(d.Tuples, want, Tuple.Same) {
		t.Fatalf("Distinct = %v, want %v", d.Tuples, want)
	}
	if bits := math.Float64bits(d.Tuples[2][0].FloatVal()); bits != math.Float64bits(math.NaN()) {
		t.Fatalf("Distinct kept the NaN %#x, want the first one", bits)
	}
}

func TestTallyCounts(t *testing.T) {
	c := NewTally(0)
	for _, row := range []Tuple{{Int(2)}, {Float(2)}, {Int(2)}} {
		*c.Add(row)++
	}
	if got := *c.Find(Tuple{Int(2)}); got != 2 {
		t.Errorf("Int(2) counted %d times, want 2", got)
	}
	if got := *c.Find(Tuple{Float(2)}); got != 1 {
		t.Errorf("Float(2) counted %d times, want 1", got)
	}
	if c.Find(Tuple{String("2")}) != nil {
		t.Error("a tuple never added is found")
	}
}

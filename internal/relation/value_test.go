package relation

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() must be null")
	}
	if got := String("x").Str(); got != "x" {
		t.Fatalf("Str() = %q, want x", got)
	}
	if got := Int(7).IntVal(); got != 7 {
		t.Fatalf("IntVal() = %d, want 7", got)
	}
	if got := Float(2.5).FloatVal(); got != 2.5 {
		t.Fatalf("FloatVal() = %v, want 2.5", got)
	}
	if got := Bool(true).BoolVal(); got != true {
		t.Fatalf("BoolVal() = %v, want true", got)
	}
}

func TestValueKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "null", KindString: "string", KindInt: "int",
		KindFloat: "float", KindBool: "bool",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
		back, err := KindFromString(want)
		if err != nil || back != k {
			t.Errorf("KindFromString(%q) = %v, %v; want %v", want, back, err, k)
		}
	}
	if _, err := KindFromString("banana"); err == nil {
		t.Error("KindFromString(banana) should fail")
	}
}

func TestValueEqualNumericCrossKind(t *testing.T) {
	if !Int(2).Equal(Float(2)) {
		t.Error("Int(2) should equal Float(2)")
	}
	if Int(2).Equal(Float(2.5)) {
		t.Error("Int(2) should not equal Float(2.5)")
	}
	if String("2").Equal(Int(2)) {
		t.Error("String(2) should not equal Int(2)")
	}
	if !Null().Equal(Null()) {
		t.Error("null equals null")
	}
	if Null().Equal(String("")) {
		t.Error("null must not equal empty string")
	}
}

func TestValueCompareOrdering(t *testing.T) {
	ordered := []Value{Null(), Bool(false), Bool(true), Int(-3), Float(0.5), Int(1), String("a"), String("b")}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			c := ordered[i].Compare(ordered[j])
			want := sign(i - j)
			// Int(1) vs Float(0.5) etc. are genuinely ordered numerically,
			// which our `ordered` slice respects.
			if c != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], c, want)
			}
		}
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	vals := []Value{Null(), String(""), String("1"), Int(1), Float(1), Bool(true), String("true")}
	seen := map[string]Value{}
	for _, v := range vals {
		if prev, ok := seen[v.Key()]; ok {
			t.Errorf("Key collision between %#v and %#v", prev, v)
		}
		seen[v.Key()] = v
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []struct {
		text string
		kind Kind
		want Value
	}{
		{"", KindString, Null()},
		{"hello", KindString, String("hello")},
		{"42", KindInt, Int(42)},
		{" 42 ", KindInt, Int(42)},
		{"2.5", KindFloat, Float(2.5)},
		{"true", KindBool, Bool(true)},
	}
	for _, c := range cases {
		got, err := Parse(c.text, c.kind)
		if err != nil {
			t.Errorf("Parse(%q, %v): %v", c.text, c.kind, err)
			continue
		}
		if !got.Equal(c.want) || got.Kind() != c.want.Kind() {
			t.Errorf("Parse(%q, %v) = %v, want %v", c.text, c.kind, got, c.want)
		}
	}
	if _, err := Parse("xyz", KindInt); err == nil {
		t.Error("Parse(xyz, int) should fail")
	}
	if _, err := Parse("xyz", KindFloat); err == nil {
		t.Error("Parse(xyz, float) should fail")
	}
	if _, err := Parse("xyz", KindBool); err == nil {
		t.Error("Parse(xyz, bool) should fail")
	}
}

func TestInfer(t *testing.T) {
	if Infer("").Kind() != KindNull {
		t.Error("Infer empty = null")
	}
	if Infer("17").Kind() != KindInt {
		t.Error("Infer 17 = int")
	}
	if Infer("17.5").Kind() != KindFloat {
		t.Error("Infer 17.5 = float")
	}
	if Infer("true").Kind() != KindBool {
		t.Error("Infer true = bool")
	}
	if Infer("SW1A 1AA").Kind() != KindString {
		t.Error("Infer postcode = string")
	}
}

// refInfer is Infer without the look at the bytes first: every text goes to
// strconv, which is the contract.
func refInfer(text string) Value {
	if text == "" {
		return Null()
	}
	t := strings.TrimSpace(text)
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil && !math.IsInf(f, 0) && !math.IsNaN(f) {
		return Float(f)
	}
	if t == "true" || t == "false" {
		return Bool(t == "true")
	}
	return String(text)
}

func sameInference(t *testing.T, text string) {
	t.Helper()
	got, want := Infer(text), refInfer(text)
	if got.Kind() != want.Kind() || got.Key() != want.Key() || math.Float64bits(got.FloatVal()) != math.Float64bits(want.FloatVal()) {
		t.Fatalf("Infer(%q) = %s %v, strconv says %s %v", text, got.Kind(), got, want.Kind(), want)
	}
}

// inferTexts are the number spellings strconv accepts, and near misses.
var inferTexts = []string{"", " ", "17", " 17 ", "+17", "-0", "17.5", ".5", "5.", "1e5", "1E-5", "1e", "0x1p3", "0X1P-2", "0x_1p3",
	"0x1", "1_000", "0b11", "inf", "+Inf", "-INFINITY", "infinit", "nan", "NaN", "-nan", "true", " false ", "TRUE", "12 high street",
	"£180,000", "180,000", "1e999", "9223372036854775808", "-9223372036854775809", "detached", "face", "1\u00a02", "٣", "1\x00"}

func TestInferMatchesStrconv(t *testing.T) {
	for _, text := range inferTexts {
		sameInference(t, text)
	}
}

func FuzzInfer(f *testing.F) {
	for _, text := range inferTexts {
		f.Add(text)
	}
	f.Fuzz(sameInference)
}

func TestCoerce(t *testing.T) {
	if v, ok := Coerce(String("3"), KindInt); !ok || !v.Equal(Int(3)) {
		t.Errorf("Coerce string->int: %v %v", v, ok)
	}
	if v, ok := Coerce(Int(3), KindFloat); !ok || !v.Equal(Float(3)) {
		t.Errorf("Coerce int->float: %v %v", v, ok)
	}
	if v, ok := Coerce(Float(3.0), KindInt); !ok || !v.Equal(Int(3)) {
		t.Errorf("Coerce whole float->int: %v %v", v, ok)
	}
	if _, ok := Coerce(Float(3.5), KindInt); ok {
		t.Error("Coerce 3.5->int must fail")
	}
	if v, ok := Coerce(Int(7), KindString); !ok || v.Str() != "7" {
		t.Errorf("Coerce int->string: %v %v", v, ok)
	}
	if v, ok := Coerce(Null(), KindInt); !ok || !v.IsNull() {
		t.Errorf("Coerce null passes through: %v %v", v, ok)
	}
	if _, ok := Coerce(String("nope"), KindBool); ok {
		t.Error("Coerce bad bool must fail")
	}
}

// TestCoerceRefusesWhatHasNoKind: a float outside int64's range is no int,
// and text that spells NaN or an infinity is no float (Parse refuses it too).
func TestCoerceRefusesWhatHasNoKind(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		want Value
		ok   bool
	}{
		{Float(1e19), KindInt, Null(), false},
		{Float(-1e19), KindInt, Null(), false},
		{Float(9223372036854775808), KindInt, Null(), false}, // 2⁶³
		{Float(-9223372036854775808), KindInt, Int(math.MinInt64), true},
		{Float(9223372036854774784), KindInt, Int(9223372036854774784), true}, // the last float below 2⁶³
		{Float(math.Inf(1)), KindInt, Null(), false},
		{Float(math.Inf(-1)), KindInt, Null(), false},
		{Float(math.NaN()), KindInt, Null(), false},
		{Float(math.Copysign(0, -1)), KindInt, Int(0), true},
		{String("NaN"), KindFloat, Null(), false},
		{String("nan"), KindFloat, Null(), false},
		{String("Inf"), KindFloat, Null(), false},
		{String(" -Inf "), KindFloat, Null(), false},
		{String("+Infinity"), KindFloat, Null(), false},
		{String("1e400"), KindFloat, Null(), false},
		{String(" 2.5 "), KindFloat, Float(2.5), true},
		{String("1e308"), KindFloat, Float(1e308), true},
	}
	for _, c := range cases {
		got, ok := Coerce(c.v, c.kind)
		if ok != c.ok || !got.Same(c.want) {
			t.Errorf("Coerce(%#v, %v) = %#v, %v; want %#v, %v", c.v, c.kind, got, ok, c.want, c.ok)
		}
		if _, err := Parse(c.v.String(), c.kind); c.v.Kind() == KindString && (err == nil) != c.ok {
			t.Errorf("Coerce(%q, %v) ok=%v, but Parse errs %v", c.v.String(), c.kind, ok, err)
		}
	}
}

// randomValue produces an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null()
	case 1:
		return String(randString(r))
	case 2:
		return Int(int64(r.Intn(2000) - 1000))
	case 3:
		return Float(float64(r.Intn(2000)-1000) / 4)
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func randString(r *rand.Rand) string {
	letters := []rune("abcdefgXYZ 0123")
	n := r.Intn(8)
	s := make([]rune, n)
	for i := range s {
		s[i] = letters[r.Intn(len(letters))]
	}
	return string(s)
}

type quickValue struct{ V Value }

// Generate implements quick.Generator so Value can be property-tested.
func (quickValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickValue{V: randomValue(r)})
}

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(a, b quickValue) bool {
		return a.V.Compare(b.V) == -b.V.Compare(a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropCompareReflexiveAndEqualConsistent(t *testing.T) {
	f := func(a quickValue) bool {
		return a.V.Compare(a.V) == 0 && a.V.Equal(a.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropEqualImpliesSameKey(t *testing.T) {
	f := func(a, b quickValue) bool {
		if a.V.Key() == b.V.Key() {
			return a.V.Equal(b.V)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropCompareTransitive(t *testing.T) {
	f := func(a, b, c quickValue) bool {
		vals := []Value{a.V, b.V, c.V}
		// Sort the three and check pairwise consistency.
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 3; k++ {
					if vals[i].Compare(vals[j]) <= 0 && vals[j].Compare(vals[k]) <= 0 {
						if vals[i].Compare(vals[k]) > 0 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropParseStringRoundTrip(t *testing.T) {
	f := func(a quickValue) bool {
		v := a.V
		// Rendering then parsing with the same kind must reproduce the value
		// (modulo null, which renders as "").
		parsed, err := Parse(v.String(), v.Kind())
		if err != nil {
			return false
		}
		if v.Kind() == KindString && v.Str() == "" {
			return parsed.IsNull() // "" renders to null by convention
		}
		return parsed.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestParseFloatRejectsNonFinite: a float column does not take NaN or an
// infinity (ReadCSV keeps such a cell as text), since no wire form holds them.
func TestParseFloatRejectsNonFinite(t *testing.T) {
	for _, text := range []string{"NaN", "nan", "-nan", "Inf", "+inf", "-Infinity", "1e999"} {
		if v, err := Parse(text, KindFloat); err == nil {
			t.Errorf("Parse(%q, float) = %v, want an error", text, v)
		}
		if v := Infer(text); v.Kind() != KindString {
			t.Errorf("Infer(%q) = %s %v, want text", text, v.Kind(), v)
		}
	}
}

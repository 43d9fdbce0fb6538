package relation

import (
	"bytes"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// refValue is Value's 48-byte layout before the int, the float and the bool
// were folded into one word: one field per payload, and each method as it was
// written over them. It is the differential reference of Value's methods.
type refValue struct {
	kind Kind
	s    string
	i    int64
	f    float64
	b    bool
}

func (v refValue) Same(o refValue) bool {
	return v.kind == o.kind && v.s == o.s && v.i == o.i && v.b == o.b &&
		(math.Float64bits(v.f) == math.Float64bits(o.f) || v.f != v.f && o.f != o.f)
}

func (v refValue) hash() uint64 {
	x := uint64(v.kind)*0xbf58476d1ce4e5b9 ^ uint64(v.i) ^ math.Float64bits(v.f)
	switch {
	case v.kind == KindString:
		x ^= maphash.String(hashSeed, v.s)
	case v.f != v.f:
		x = 0x7ff8000000000001
	case v.b:
		x ^= 1
	}
	return x
}

func (v refValue) asFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

func (v refValue) Equal(o refValue) bool {
	if v.kind == o.kind {
		switch v.kind {
		case KindNull:
			return true
		case KindString:
			return v.s == o.s
		case KindInt:
			return v.i == o.i
		case KindFloat:
			return v.f == o.f
		case KindBool:
			return v.b == o.b
		}
	}
	if vf, ok := v.asFloat(); ok {
		if of, ok2 := o.asFloat(); ok2 {
			return vf == of
		}
	}
	return false
}

func (v refValue) rank() int {
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	default:
		return 3
	}
}

func (v refValue) Compare(o refValue) int {
	ra, rb := v.rank(), o.rank()
	if ra != rb {
		return sign(ra - rb)
	}
	switch {
	case v.kind == KindNull:
		return 0
	case v.kind == KindBool:
		return boolCompare(v.b, o.b)
	case ra == 2:
		vf, _ := v.asFloat()
		of, _ := o.asFloat()
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		default:
			return 0
		}
	default:
		return strings.Compare(v.s, o.s)
	}
}

func (v refValue) String() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.b)
	default:
		return ""
	}
}

func (v refValue) Key() string {
	switch v.kind {
	case KindNull:
		return "\x00N"
	case KindString:
		return "\x00S" + v.s
	case KindInt:
		return "\x00I" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		return "\x00F" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		if v.b {
			return "\x00Bt"
		}
		return "\x00Bf"
	default:
		return "\x00?"
	}
}

func (v refValue) AppendJSON(b []byte) ([]byte, error) {
	if v.kind >= 0 && int(v.kind) < len(kindTags) {
		b = append(b, kindTags[v.kind]...)
	} else {
		b = append(b, `{"k":`...)
		b = AppendJSONString(b, v.kind.String())
	}
	var err error
	switch v.kind {
	case KindString:
		if v.s != "" {
			b = append(b, `,"s":`...)
			b = AppendJSONString(b, v.s)
		}
	case KindInt:
		if v.i != 0 {
			b = append(b, `,"i":`...)
			b = strconv.AppendInt(b, v.i, 10)
		}
	case KindFloat:
		if v.f != 0 {
			b = append(b, `,"f":`...)
			b, err = AppendJSONFloat(b, v.f)
		}
	case KindBool:
		if v.b {
			b = append(b, `,"b":true`...)
		}
	}
	return append(b, '}'), err
}

// layoutPairs returns the same values in both layouts, one of each kind per
// payload set, an unknown kind, and the numeric cross-kind twins that Equal
// and Compare relate.
func layoutPairs(s string, i int64, bits uint64, b bool) ([]Value, []refValue) {
	f := math.Float64frombits(bits)
	return []Value{Null(), String(s), Int(i), Float(f), Bool(b), {kind: Kind(9)},
			Float(float64(i)), Int(int64(f))},
		[]refValue{{}, {kind: KindString, s: s}, {kind: KindInt, i: i}, {kind: KindFloat, f: f},
			{kind: KindBool, b: b}, {kind: Kind(9)},
			{kind: KindFloat, f: float64(i)}, {kind: KindInt, i: int64(f)}}
}

// sameAsLayout fails unless every method of every value, and of every pair,
// answers as the 48-byte layout did, hash values included.
func sameAsLayout(t *testing.T, vs []Value, rs []refValue) {
	t.Helper()
	for x, v := range vs {
		r := rs[x]
		if v.hash() != r.hash() {
			t.Fatalf("%#v: hash %x, reference %x", v, v.hash(), r.hash())
		}
		if v.Key() != r.Key() || v.String() != r.String() {
			t.Fatalf("%#v: Key %q String %q, reference %q %q", v, v.Key(), v.String(), r.Key(), r.String())
		}
		got, gotErr := v.AppendJSON(nil)
		want, wantErr := r.AppendJSON(nil)
		if !bytes.Equal(got, want) || (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%#v: AppendJSON %s %v, reference %s %v", v, got, gotErr, want, wantErr)
		}
		for y, o := range vs {
			q := rs[y]
			if v.Same(o) != r.Same(q) || v.Equal(o) != r.Equal(q) || v.Compare(o) != r.Compare(q) {
				t.Fatalf("%#v vs %#v: Same %v Equal %v Compare %d, reference %v %v %d", v, o,
					v.Same(o), v.Equal(o), v.Compare(o), r.Same(q), r.Equal(q), r.Compare(q))
			}
		}
	}
}

// FuzzValueLayout holds the 32-byte Value to the 48-byte layout it replaced:
// Same, Equal, Compare, Key, String, AppendJSON and the hash value, over every
// kind and over raw float bits (NaN payloads, ±0, ±Inf).
func FuzzValueLayout(f *testing.F) {
	negZero := math.Float64bits(math.Copysign(0, -1))
	f.Add("", int64(0), uint64(0), false, "", int64(0), negZero, true)
	f.Add("a", int64(1), math.Float64bits(1), true, "a", int64(-1), math.Float64bits(-1), false)
	f.Add("NaN", int64(7), uint64(0x7ff8000000000001), false, "x", int64(7), uint64(0xfff0000000000abc), true)
	f.Add("\x00S", int64(math.MinInt64), math.Float64bits(math.Inf(1)), true,
		"☃", int64(math.MaxInt64), math.Float64bits(math.Inf(-1)), false)
	f.Add("2", int64(2), math.Float64bits(2), true, "2.5", int64(3), math.Float64bits(2.5), true)
	f.Add("x", int64(1), uint64(0x7ff0000000000001), false, "x", int64(1), uint64(0x7fffffffffffffff), false)
	f.Add("big", int64(1)<<53+1, math.Float64bits(1e19), true, "small", int64(-1)<<53-1, uint64(1), false)
	f.Fuzz(func(t *testing.T, s string, i int64, bits uint64, b bool, s2 string, i2 int64, bits2 uint64, b2 bool) {
		vs, rs := layoutPairs(s, i, bits, b)
		vs2, rs2 := layoutPairs(s2, i2, bits2, b2)
		sameAsLayout(t, append(vs, vs2...), append(rs, rs2...))
	})
}

// TestValueIs32Bytes pins the layout: the kind, the string header and one
// payload word, on a 64-bit platform.
func TestValueIs32Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

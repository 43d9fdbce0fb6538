package relation

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func propertySchema() Schema {
	return NewSchema("property", "street", "postcode", "bedrooms:int", "price:float")
}

func sampleRelation() *Relation {
	r := New(propertySchema())
	r.MustAppend("1 High St", "M1 1AA", 3, 250000.0)
	r.MustAppend("2 Low Rd", "M1 1AB", 2, 180000.0)
	r.MustAppend("3 Mid Ln", "M2 2BB", nil, 320000.0)
	return r
}

func TestNewSchemaSpecs(t *testing.T) {
	s := propertySchema()
	if s.Arity() != 4 {
		t.Fatalf("arity = %d, want 4", s.Arity())
	}
	if s.Attrs[2].Type != KindInt || s.Attrs[3].Type != KindFloat || s.Attrs[0].Type != KindString {
		t.Fatalf("unexpected types: %v", s)
	}
	if s.AttrIndex("postcode") != 1 || s.AttrIndex("missing") != -1 {
		t.Fatal("AttrIndex wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSchema with bad kind should panic")
		}
	}()
	NewSchema("x", "a:banana")
}

func TestSchemaProjectAndEqual(t *testing.T) {
	s := propertySchema()
	p, err := s.Project("price", "street")
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 || p.Attrs[0].Name != "price" || p.Attrs[1].Name != "street" {
		t.Fatalf("project wrong: %v", p)
	}
	if _, err := s.Project("nope"); err == nil {
		t.Error("projecting unknown attribute should fail")
	}
	if !s.Equal(propertySchema()) {
		t.Error("schema should equal its twin")
	}
	if s.Equal(s.WithName("other")) {
		t.Error("renamed schema differs")
	}
}

func TestAppendArityCheck(t *testing.T) {
	r := New(propertySchema())
	if err := r.Append(NewTuple("a", "b")); err == nil {
		t.Error("short tuple should be rejected")
	}
	if err := r.Append(NewTuple("a", "b", 1, 2.0)); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
}

func TestProject(t *testing.T) {
	r := sampleRelation()
	p, err := r.Project("postcode", "price")
	if err != nil {
		t.Fatal(err)
	}
	if p.Cardinality() != 3 || p.Schema.Arity() != 2 {
		t.Fatalf("project result wrong: %v", p)
	}
	if got := p.Tuples[0][p.Schema.AttrIndex("postcode")]; !got.Equal(String("M1 1AA")) {
		t.Errorf("projected value = %v", got)
	}
}

func TestDistinctAndUnion(t *testing.T) {
	r := sampleRelation()
	u, err := r.Union(sampleRelation())
	if err != nil {
		t.Fatal(err)
	}
	if u.Cardinality() != 6 {
		t.Fatalf("union size %d, want 6", u.Cardinality())
	}
	d := u.Distinct()
	if d.Cardinality() != 3 {
		t.Fatalf("distinct size %d, want 3", d.Cardinality())
	}
	other := New(NewSchema("x", "only"))
	if _, err := r.Union(other); err == nil {
		t.Error("union with different arity should fail")
	}
}

func csvString(t *testing.T, r *Relation) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCSVRoundTrip(t *testing.T) {
	r := sampleRelation()
	text := csvString(t, r)
	sch := propertySchema()
	back, err := ReadCSV("property", strings.NewReader(text), &sch)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cardinality() != r.Cardinality() {
		t.Fatalf("round trip cardinality %d, want %d", back.Cardinality(), r.Cardinality())
	}
	for i := range r.Tuples {
		if back.Tuples[i].Key() != r.Tuples[i].Key() {
			t.Errorf("row %d: %v != %v", i, back.Tuples[i], r.Tuples[i])
		}
	}
}

func TestCSVInference(t *testing.T) {
	text := "a,b,c\n1,2.5,x\n2,,y\n"
	r, err := ReadCSV("t", strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.Attrs[0].Type != KindInt {
		t.Errorf("col a inferred %v, want int", r.Schema.Attrs[0].Type)
	}
	if r.Schema.Attrs[1].Type != KindFloat {
		t.Errorf("col b inferred %v, want float", r.Schema.Attrs[1].Type)
	}
	if r.Schema.Attrs[2].Type != KindString {
		t.Errorf("col c inferred %v, want string", r.Schema.Attrs[2].Type)
	}
	if v := r.Tuples[1][1]; !v.IsNull() {
		t.Errorf("empty cell should be null, got %v", v)
	}
}

func TestCSVMixedIntFloatGeneralizes(t *testing.T) {
	text := "n\n1\n2.5\n"
	r, err := ReadCSV("t", strings.NewReader(text), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Schema.Attrs[0].Type != KindFloat {
		t.Errorf("mixed ints and floats should infer float, got %v", r.Schema.Attrs[0].Type)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader(""), nil); err == nil {
		t.Error("empty CSV should fail")
	}
	sch := NewSchema("t", "a", "b")
	if _, err := ReadCSV("t", strings.NewReader("a\nx\n"), &sch); err == nil {
		t.Error("header/schema width mismatch should fail")
	}
	if _, err := ReadCSV("t", strings.NewReader("x,y\n1,2\n"), &sch); err == nil {
		t.Error("header name mismatch should fail")
	}
}

func TestRelationStringTruncates(t *testing.T) {
	r := New(NewSchema("big", "n:int"))
	for i := 0; i < 50; i++ {
		r.MustAppend(i)
	}
	s := r.String()
	if !strings.Contains(s, "more)") {
		t.Error("expected truncation marker in large relation rendering")
	}
}

// Property: Distinct is idempotent and never increases cardinality.
func TestPropDistinctIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(NewSchema("p", "a", "b:int"))
		for i := 0; i < rng.Intn(40); i++ {
			r.MustAppend(randString(rng), rng.Intn(5))
		}
		d1 := r.Distinct()
		d2 := d1.Distinct()
		return d1.Cardinality() <= r.Cardinality() && d1.Cardinality() == d2.Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: CSV round trip preserves typed relations exactly.
func TestPropCSVRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := New(NewSchema("p", "s", "n:int", "f:float", "b:bool"))
		for i := 0; i < rng.Intn(30); i++ {
			var s Value = String(strings.ReplaceAll(randString(rng), "\x00", ""))
			if rng.Intn(5) == 0 {
				s = Null()
			}
			r.Tuples = append(r.Tuples, Tuple{s, Int(int64(rng.Intn(100))), Float(float64(rng.Intn(100)) / 2), Bool(rng.Intn(2) == 0)})
		}
		sch := r.Schema
		back, err := ReadCSV("p", strings.NewReader(csvString(t, r)), &sch)
		if err != nil {
			return false
		}
		if back.Cardinality() != r.Cardinality() {
			return false
		}
		for i := range r.Tuples {
			for j := range r.Tuples[i] {
				got, want := back.Tuples[i][j], r.Tuples[i][j]
				// "" strings render identically to null; accept that fusion.
				if want.Kind() == KindString && want.Str() == "" && got.IsNull() {
					continue
				}
				if !got.Equal(want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

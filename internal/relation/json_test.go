package relation

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestValueJSONRoundTrip(t *testing.T) {
	vals := []Value{
		Null(), String(""), String("hello"), String("1"),
		Int(0), Int(-42), Float(2.5), Float(0), Bool(true), Bool(false),
	}
	for _, v := range vals {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if back.Kind() != v.Kind() || !back.Equal(v) {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
	}
}

func TestValueJSONDistinguishesLookalikes(t *testing.T) {
	// "1" (string) and 1 (int) must not collapse.
	s, _ := json.Marshal(String("1"))
	i, _ := json.Marshal(Int(1))
	if string(s) == string(i) {
		t.Fatal("string and int encodings must differ")
	}
	// null and "" must not collapse.
	n, _ := json.Marshal(Null())
	e, _ := json.Marshal(String(""))
	if string(n) == string(e) {
		t.Fatal("null and empty-string encodings must differ")
	}
}

func TestValueJSONBadKind(t *testing.T) {
	var v Value
	if err := json.Unmarshal([]byte(`{"k":"banana"}`), &v); err == nil {
		t.Fatal("unknown kind should fail")
	}
}

func TestRelationJSONRoundTrip(t *testing.T) {
	r := New(NewSchema("t", "s", "n:int", "f:float", "b:bool"))
	r.MustAppend("x", 1, 2.5, true)
	r.MustAppend(nil, nil, nil, nil)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Relation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Schema.Equal(r.Schema) || back.Cardinality() != 2 {
		t.Fatalf("round trip: %v", &back)
	}
	for i := range r.Tuples {
		if back.Tuples[i].Key() != r.Tuples[i].Key() {
			t.Errorf("row %d: %v != %v", i, back.Tuples[i], r.Tuples[i])
		}
	}
}

func TestRelationJSONArityMismatch(t *testing.T) {
	bad := `{"name":"t","attrs":[{"name":"a","type":"string"}],"rows":[[{"k":"string","s":"x"},{"k":"int","i":1}]]}`
	var back Relation
	if err := json.Unmarshal([]byte(bad), &back); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

// Property: JSON round trip preserves arbitrary values exactly.
func TestPropValueJSONRoundTrip(t *testing.T) {
	f := func(q quickValue) bool {
		data, err := json.Marshal(q.V)
		if err != nil {
			return false
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.Kind() == q.V.Kind() && back.Equal(q.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

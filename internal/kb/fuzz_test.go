package kb

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vada/internal/relation"
)

// seedSnapshot renders a small but representative KB snapshot for the fuzz
// corpus: facts over two predicates plus one bulk relation.
func seedSnapshot(t testing.TB) []byte {
	t.Helper()
	k := New()
	k.Assert("src_registered", relation.NewTuple("rightmove"))
	k.Assert("md_match", relation.NewTuple("rightmove", "road", "street", 0.91, "name"))
	k.Assert("fb_item", relation.NewTuple("High St", "AB1 2CD", "bedrooms", false))
	rel := relation.New(relation.NewSchema("result", "street", "postcode", "price:float"))
	rel.Tuples = append(rel.Tuples, relation.NewTuple("High St", "AB1 2CD", 250000.0))
	k.PutRelation("result", rel)
	var buf bytes.Buffer
	if err := k.WriteSnapshot(&buf); err != nil {
		t.Fatalf("writing seed snapshot: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadSnapshot proves the KB snapshot decoder is total over adversarial
// input: truncated, corrupted and hostile streams must return an error
// wrapping ErrBadSnapshot (or decode cleanly) — never panic, and never
// allocate beyond the bytes actually presented.
func FuzzReadSnapshot(f *testing.F) {
	valid := seedSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                  // truncated mid-stream
	f.Add(bytes.Replace(valid, []byte(`"k"`), []byte(`"q"`), 1)) // corrupted value tag
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":18446744073709551615}`))
	f.Add([]byte(`{"facts":{"p":[[{"k":"int","i":1}]]},"relations":{"r":null}}`))
	f.Add([]byte(`{"facts":{"":[[]]}}`))
	f.Add([]byte(`{"relations":{"r":{"name":"r","attrs":[{"name":"a","type":"int"}],"rows":[[]]}}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := ReadSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("ReadSnapshot error is not ErrBadSnapshot: %v", err)
			}
			return
		}
		// Whatever decodes must re-encode and decode again losslessly.
		var buf bytes.Buffer
		if err := k.WriteSnapshot(&buf); err != nil {
			t.Fatalf("re-encoding decoded snapshot: %v", err)
		}
		if _, err := ReadSnapshot(buf.Bytes()); err != nil {
			t.Fatalf("re-decoding re-encoded snapshot: %v", err)
		}
	})
}

// TestReadSnapshotTypedErrors pins the decoder's error contract outside the
// fuzzer so plain `go test` exercises it too.
func TestReadSnapshotTypedErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":           nil,
		"not json":        []byte("boom"),
		"truncated":       seedSnapshot(t)[:10],
		"empty predicate": []byte(`{"facts":{"":[]}}`),
		"empty relation":  []byte(`{"relations":{"":null}}`),
		"bad arity":       []byte(`{"relations":{"r":{"name":"r","attrs":[{"name":"a","type":"int"}],"rows":[[{"k":"int","i":1},{"k":"int","i":2}]]}}}`),
		"trailing data":   append(seedSnapshot(t), "trailing garbage {"...),
		"value key":       []byte(`{"facts":{"p":[[{"k":"string","v":"12 High St"}]]}}`),
		"value key case":  []byte(`{"facts":{"p":[[{"K":"string","S":"x"}]]}}`),
		"value key twice": []byte(`{"facts":{"p":[[{"k":"int","i":1,"k":"string"}]]}}`),
	}
	for name, data := range cases {
		_, err := ReadSnapshot(data)
		if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: got %v, want ErrBadSnapshot", name, err)
		}
		if strings.HasPrefix(name, "value key") && !errors.Is(err, relation.ErrValueKey) {
			t.Errorf("%s: got %v, want relation.ErrValueKey", name, err)
		}
	}
}

package kb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vada/internal/relation"
)

// refSnapshotJSON, refValue and refRelation are the reflection decoders
// ReadSnapshot, Value.UnmarshalJSON and Relation.UnmarshalJSON were before
// relation.Decoder: the differential reference of the reader.
type refSnapshotJSON struct {
	Version   uint64                  `json:"version"`
	Facts     map[string][][]refValue `json:"facts"`
	Relations map[string]*refRelation `json:"relations"`
}

type refValueJSON struct {
	K string  `json:"k"`
	S string  `json:"s,omitempty"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	B bool    `json:"b,omitempty"`
}

type refRelationJSON struct {
	Name  string `json:"name"`
	Attrs []struct {
		Name string `json:"name"`
		Type string `json:"type"`
	} `json:"attrs"`
	Rows [][]refValue `json:"rows"`
}

type refValue struct{ v relation.Value }

type refRelation struct{ r *relation.Relation }

// openValueSeen records that the reference took a Value object the reader
// refuses: a key other than k, s, i, f and b (one that matches only when
// case is ignored included), or a key twice. Fuzz inputs run one at a time
// in a process, so one flag serves.
var openValueSeen bool

func (x *refValue) UnmarshalJSON(data []byte) error {
	var in refValueJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	kind, err := relation.KindFromString(in.K)
	if err != nil {
		return err
	}
	switch kind {
	case relation.KindNull:
		x.v = relation.Null()
	case relation.KindString:
		x.v = relation.String(in.S)
	case relation.KindInt:
		x.v = relation.Int(in.I)
	case relation.KindFloat:
		x.v = relation.Float(in.F)
	case relation.KindBool:
		x.v = relation.Bool(in.B)
	}
	if openKeys(data) {
		openValueSeen = true
	}
	return nil
}

// openKeys reports whether the object data has a key outside k, s, i, f
// and b, or one of them twice.
func openKeys(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch key := tok.(string); {
		case key != "k" && key != "s" && key != "i" && key != "f" && key != "b", seen[key]:
			return true
		default:
			seen[key] = true
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			return false
		}
	}
	return false
}

func (x *refRelation) UnmarshalJSON(data []byte) error {
	var in refRelationJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	schema := relation.Schema{Name: in.Name}
	for _, a := range in.Attrs {
		kind, err := relation.KindFromString(a.Type)
		if err != nil {
			return err
		}
		schema.Attrs = append(schema.Attrs, relation.Attribute{Name: a.Name, Type: kind})
	}
	x.r = &relation.Relation{Schema: schema}
	for _, row := range in.Rows {
		if len(row) != schema.Arity() {
			return fmt.Errorf("decoding %s: row arity %d, want %d", in.Name, len(row), schema.Arity())
		}
		x.r.Tuples = append(x.r.Tuples, refTuple(row))
	}
	return nil
}

func refTuple(row []refValue) relation.Tuple {
	if row == nil {
		return nil
	}
	t := make(relation.Tuple, len(row))
	for i, v := range row {
		t[i] = v.v
	}
	return t
}

// refReadSnapshot is ReadSnapshot as it was before relation.Decoder: one
// value read by a json.Decoder, whatever follows it. end is where the value
// ends.
func refReadSnapshot(data []byte) (k *KB, end int, err error) {
	var snap refSnapshotJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&snap); err != nil {
		return nil, 0, err
	}
	k = New()
	for pred, tuples := range snap.Facts {
		if pred == "" {
			return nil, 0, errors.New("empty fact predicate")
		}
		for _, t := range tuples {
			k.Assert(pred, refTuple(t))
		}
	}
	for name, rel := range snap.Relations {
		if name == "" {
			return nil, 0, errors.New("empty relation name")
		}
		if rel != nil {
			k.PutRelation(name, rel.r)
		}
	}
	k.version = max(k.version, snap.Version)
	return k, int(dec.InputOffset()), nil
}

// sameKB fails unless a and b have one digest, one version and one
// snapshot.
func sameKB(t *testing.T, data []byte, a, b *KB) {
	t.Helper()
	var sa, sb bytes.Buffer
	if err := a.WriteSnapshot(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if a.Digest() != b.Digest() || a.Version() != b.Version() || !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("%q:\nreader    v%d %x %s\nreference v%d %x %s", data, a.Version(), a.Digest(), &sa, b.Version(), b.Digest(), &sb)
	}
}

// readDifferential holds ReadSnapshot to the reflection decoder on data:
// both fail, or both succeed with one knowledge base. The reader may refuse
// what the reference takes only for the two reasons it exists to refuse: a
// Value object whose keys are not closed (then the reference saw one, and the
// reader's error is ErrValueKey), or data after the snapshot.
func readDifferential(t *testing.T, data []byte) {
	got, gotErr := ReadSnapshot(data)
	if gotErr != nil && !errors.Is(gotErr, ErrBadSnapshot) {
		t.Fatalf("%q: error %v is no ErrBadSnapshot", data, gotErr)
	}
	openValueSeen = false
	want, end, wantErr := refReadSnapshot(data)
	switch {
	case gotErr != nil && wantErr != nil:
	case gotErr == nil && wantErr == nil:
		sameKB(t, data, got, want)
	case gotErr == nil:
		t.Fatalf("%q: the reader took what the reference refuses (%v)", data, wantErr)
	case openValueSeen && errors.Is(gotErr, relation.ErrValueKey):
	case len(bytes.TrimLeft(data[end:], " \t\r\n")) > 0:
		// The snapshot alone reads as the reference read it.
		if got, err := ReadSnapshot(data[:end]); err != nil {
			t.Fatalf("%q: without what follows it: %v", data[:end], err)
		} else {
			sameKB(t, data[:end], got, want)
		}
	default:
		t.Fatalf("%q: the reader refused what the reference takes: %v", data, gotErr)
	}
}

// goldenKBSection is the knowledge-base section of the store's golden v1
// snapshot envelope: the header, then frames of kind, big-endian length,
// payload and checksum.
func goldenKBSection(t testing.TB) []byte {
	data, err := os.ReadFile(filepath.Join("..", "store", "testdata", "v1_session.vsnap"))
	if err != nil {
		t.Fatal(err)
	}
	const header, sectionKB = 9, 0x02
	for rest := data[header:]; len(rest) > 5 && rest[0] != 0; {
		n := int(binary.BigEndian.Uint32(rest[1:5]))
		if rest[0] == sectionKB {
			return rest[5 : 5+n]
		}
		rest = rest[5+n+4:]
	}
	t.Fatal("the golden snapshot has no knowledge-base section")
	return nil
}

// FuzzReadSnapshotDifferential holds ReadSnapshot to the reflection decoder
// it replaced, over snapshots of FuzzSnapshotJSON's scripts, seedSnapshot,
// the golden envelope's section, and the inputs where encoding/json's rules
// are least obvious.
func FuzzReadSnapshotDifferential(f *testing.F) {
	for _, script := range snapshotScripts {
		var buf bytes.Buffer
		if scriptKB(script).WriteSnapshot(&buf) == nil {
			f.Add(buf.Bytes())
		}
	}
	f.Add(seedSnapshot(f))
	f.Add(goldenKBSection(f))
	for _, s := range trickySnapshots {
		f.Add([]byte(s))
	}
	f.Fuzz(readDifferential)
}

// trickySnapshots are where encoding/json's rules show: null, case-folded
// and repeated keys, unknown keys, escapes, and the two refusals.
var trickySnapshots = []string{
	`null`,
	` {"version":3} `,
	`{"VERSION":3,"Facts":{"p":[[{"k":" Integer ","i":7}]]},"ReLaTiOnS":{}}`,
	`{"version":3,"version":null,"facts":{"p":[[]]},"facts":{"q":[null]}}`,
	`{"facts":{"p":[[{"k":"int","i":1}]]},"facts":null}`,
	`{"relations":{"r":{"name":"r","attrs":[{"name":"a","type":"int"}],"attrs":[{"name":"b"}],"rows":[[{"k":"int","i":1}]]}}}`,
	`{"relations":{"r":{"attrs":[{"name":"a","type":"int"},{"name":"b","type":"bool"}],"attrs":[{"type":"float"}],"attrs":[null,{}],"rows":[[{"k":"null"},{"k":"null"}]]}}}`,
	`{"relations":{"r":{"attrs":[],"rows":[[],null]},"s":null,"s":{"name":"s\u00e9\ud83d\ude00\ud800x"}}}`,
	`{"x":[1,{"y":[true,false,null,"\u0041\n"]},-0.5e+3],"relations":{"r":{"Name":"r","ATTRS":null,"ROWS":[],"extra":{}}}}`,
	`{"facts":{"p\u0000":[[{"k":"string","s":"\ud834\udd1e\udd1e"},{"k":"float","f":-0},{"k":"float","f":1e-400},{"k":"bool","b":null}]]}}`,
	"{\"facts\":{\"p\":[[{\"k\":\"string\",\"s\":\"\xff\xfe<>&\"}]]}}",
	`{"facts":{"p":[[{"k":"string","v":"12 High St"}]]}}`,
	`{"facts":{"p":[[{"K":"string","S":"x"}]]}}`,
	`{"facts":{"p":[[{"k":"int","i":1,"k":"string"}]]}}`,
	`{"facts":{"p":[[{"\u006b":"int","\u0069":2}]]}}`,
	`{"facts":{"p":[[{"k":"","k":"str"}]]}}`,
	`{"facts":{"p":[[{"k":"bogus","K":"int"}]]}}`,
	`{"version":1}` + "\ntrailing garbage {",
	`{"version":1}{}`,
	`null x`,
	`{"version":-1}`,
	`{"version":1.0}`,
	`{"facts":{"p":[[{"k":"int","i":1e3}]]}}`,
	`{"facts":{"p":[[{"k":"float","f":1e400}]]}}`,
	`{"facts":{"":null}}`,
	`{"relations":{"r":5}}`,
}

// TestReadSnapshotDeepSkip: a skipped value may nest as deep as
// encoding/json allows, and no deeper.
func TestReadSnapshotDeepSkip(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		data := []byte(`{"x":` + string(bytes.Repeat([]byte("["), depth)) + string(bytes.Repeat([]byte("]"), depth)) + `}`)
		readDifferential(t, data)
	}
}

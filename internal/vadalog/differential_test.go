package vadalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vada/internal/relation"
)

// CheckSame runs the program and the queries through the compiled evaluator
// and through the reference (reference_test.go) and fails t on any
// difference: errors, the facts of every predicate and their order, labelled
// null names, Has, query answers and their order, Query and Ask. It reports
// whether the program parsed. It is exported to the package's external tests,
// which may import the rest of the repository.
func CheckSame(t testing.TB, eng *Engine, programSrc string, edb EDB, queries ...string) bool {
	t.Helper()
	prog, err := Parse(programSrc)
	if err != nil {
		return false
	}
	got, gerr := eng.Run(prog, edb)
	want, werr := eng.refRun(prog, edb)
	if !sameError(gerr, werr) {
		t.Fatalf("Run error = %v, reference %v\nprogram:\n%s", gerr, werr, programSrc)
	}
	if gerr != nil {
		return true
	}
	if g, w := fmt.Sprint(got.Predicates()), fmt.Sprint(want.Predicates()); g != w {
		t.Fatalf("predicates = %s, reference %s\nprogram:\n%s", g, w, programSrc)
	}
	for pred, ref := range want.store {
		facts := got.Facts(pred)
		if len(facts) != len(ref.tuples) {
			t.Fatalf("%s: %d facts, reference %d\nprogram:\n%s", pred, len(facts), len(ref.tuples), programSrc)
		}
		for i, w := range ref.tuples {
			if facts[i].Key() != w.Key() {
				t.Fatalf("%s[%d] = %v, reference %v\nprogram:\n%s", pred, i, facts[i], w, programSrc)
			}
			if !got.Has(pred, w) {
				t.Fatalf("Has(%s, %v) = false\nprogram:\n%s", pred, w, programSrc)
			}
		}
		absent := relation.Tuple{relation.String("\x00absent")}
		if got.Has(pred, absent) != want.Has(pred, absent) {
			t.Fatalf("Has(%s, absent) differs", pred)
		}
	}
	for _, qs := range queries {
		q, err := ParseQuery(qs)
		if err != nil {
			continue
		}
		ga, gerr := got.QueryResult(q)
		wa, werr := want.QueryResult(q)
		sameAnswers(t, "QueryResult "+qs, programSrc, ga, gerr, wa, werr)
		ga, gerr = eng.Query(programSrc, qs, edb)
		wa, werr = eng.refQuery(programSrc, qs, edb)
		sameAnswers(t, "Query "+qs, programSrc, ga, gerr, wa, werr)
		gok, gerr := eng.Ask(programSrc, qs, edb)
		wok, werr := eng.refAsk(programSrc, qs, edb)
		if gok != wok || !sameError(gerr, werr) {
			t.Fatalf("Ask %s = %v, %v; reference %v, %v\nprogram:\n%s", qs, gok, gerr, wok, werr, programSrc)
		}
	}
	return true
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

func sameAnswers(t testing.TB, what, programSrc string, got []Binding, gerr error, want []Binding, werr error) {
	t.Helper()
	if !sameError(gerr, werr) {
		t.Fatalf("%s: error %v, reference %v\nprogram:\n%s", what, gerr, werr, programSrc)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, reference %d\n%v\n%v\nprogram:\n%s", what, len(got), len(want), got, want, programSrc)
	}
	for i := range want {
		same := len(got[i]) == len(want[i])
		for v, w := range want[i] {
			g, ok := got[i][v]
			same = same && ok && g.Key() == w.Key()
		}
		if !same {
			t.Fatalf("%s: answer %d = %v, reference %v\nprogram:\n%s", what, i, got[i], want[i], programSrc)
		}
	}
}

// SmallEngine has limits low enough for generated programs to reach them, so
// the MaxFacts, MaxIterations and MaxNullDepth paths are compared too.
func SmallEngine() *Engine {
	return &Engine{MaxNullDepth: 2, MaxIterations: 12, MaxFacts: 150}
}

// genValues is the domain generated EDBs draw from: values that are Equal
// but have different keys (2, 2.0), a null, a bool, and strings. genValue
// draws the small integers half the time, so that joins find partners.
var genValues = []relation.Value{
	relation.Int(0), relation.Int(1), relation.Int(2), relation.Int(3),
	relation.Float(2), relation.Float(0.5), relation.String("a"), relation.String("b"),
	relation.String("2"), relation.Null(), relation.Bool(true),
}

func genValue(rng *rand.Rand) relation.Value {
	if rng.Intn(2) == 0 {
		return genValues[rng.Intn(4)]
	}
	return genValues[rng.Intn(len(genValues))]
}

var genConsts = []string{"0", "1", "2", "3", "2.0", `"a"`, `"b"`, "null"}

// A RandomCase is a generated program with an EDB and queries over it.
type RandomCase struct {
	Program string
	EDB     MapEDB
	Queries []string
}

// NewRandomCase generates a stratified program over random facts. The
// predicates e0..e2 are extensional (with duplicate tuples and tuples of the
// wrong arity); p0..p3 are derived, p<k> reading derived predicates up to k
// positively (so recursion occurs) and only lower ones under negation or
// aggregation. Rules draw on constants, anonymous variables, repeated
// variables, comparisons, assignments, existential head variables and
// aggregates. A few generated programs fail analysis or reach an engine
// limit; the two evaluators must then agree on the error.
func NewRandomCase(rng *rand.Rand) RandomCase {
	arity := map[string]int{}
	c := RandomCase{EDB: MapEDB{}}
	for i := 0; i < 3; i++ {
		pred := fmt.Sprintf("e%d", i)
		arity[pred] = 1 + rng.Intn(3)
		for n := rng.Intn(13); n > 0; n-- {
			t := make(relation.Tuple, arity[pred])
			if rng.Intn(12) == 0 {
				t = make(relation.Tuple, 1+rng.Intn(3)) // maybe the wrong arity
			}
			for k := range t {
				t[k] = genValue(rng)
			}
			c.EDB[pred] = append(c.EDB[pred], t)
			if rng.Intn(6) == 0 {
				c.EDB[pred] = append(c.EDB[pred], t.Clone()) // a duplicate
			}
		}
	}
	vars := []string{"X", "Y", "Z", "W"}
	var prog strings.Builder
	for k := 0; k < 4; k++ {
		head := fmt.Sprintf("p%d", k)
		arity[head] = 1 + rng.Intn(3)
		if rng.Intn(4) == 0 { // derived predicates may have EDB facts too
			t := make(relation.Tuple, arity[head])
			for i := range t {
				t[i] = genValue(rng)
			}
			c.EDB[head] = append(c.EDB[head], t)
		}
		lower := []string{"e0", "e1", "e2"}
		for j := 0; j < k; j++ {
			lower = append(lower, fmt.Sprintf("p%d", j))
		}
		// atom renders pred over variables from pool, constants and, where
		// positive (an anonymous variable is unsafe under negation), "_".
		atom := func(pred string, pool []string, positive bool) (string, []string) {
			args := make([]string, arity[pred])
			for i := range args {
				switch r := rng.Intn(10); {
				case r == 0 && positive:
					args[i] = "_"
				case r == 1:
					args[i] = genConsts[rng.Intn(len(genConsts))]
				default:
					args[i] = pool[rng.Intn(len(pool))]
				}
			}
			var used []string
			if positive {
				args[rng.Intn(len(args))] = pool[rng.Intn(len(pool))] // binds at least one
				for _, a := range args {
					if a != "_" && strings.Contains("XYZW", a) {
						used = append(used, a)
					}
				}
			}
			return fmt.Sprintf("%s(%s)", pred, strings.Join(args, ", ")), used
		}
		for nr := 1 + rng.Intn(3); nr > 0; nr-- {
			isAgg := rng.Intn(6) == 0
			var body, bound []string
			for n := 1 + rng.Intn(3); n > 0; n-- {
				pred := lower[rng.Intn(len(lower))]
				if !isAgg && rng.Intn(3) == 0 {
					pred = head // recursion, which aggregation may not pass through
				}
				a, used := atom(pred, vars, true)
				body, bound = append(body, a), append(bound, used...)
			}
			pick := func() string { return bound[rng.Intn(len(bound))] }
			if rng.Intn(3) == 0 {
				a, _ := atom(lower[rng.Intn(len(lower))], bound, false)
				body = append(body, "not "+a)
			}
			if rng.Intn(3) == 0 {
				op := []string{"<", "<=", ">", ">=", "=", "!="}[rng.Intn(6)]
				rhs := pick()
				if rng.Intn(2) == 0 {
					rhs = genConsts[rng.Intn(len(genConsts))]
				}
				body = append(body, fmt.Sprintf("%s %s %s", pick(), op, rhs))
			}
			if rng.Intn(4) == 0 {
				op := []string{"+", "-", "*", "/"}[rng.Intn(4)]
				body = append(body, fmt.Sprintf("V = %s %s %s", pick(), op, genConsts[rng.Intn(len(genConsts))]))
				bound = append(bound, "V")
			}
			rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
			args := make([]string, arity[head])
			for i := range args {
				switch r := rng.Intn(12); {
				case r == 0:
					args[i] = genConsts[rng.Intn(len(genConsts))]
				case r == 1 && !isAgg:
					args[i] = "E" // existential
				default:
					args[i] = pick()
				}
			}
			if isAgg {
				fn := []string{"count", "sum", "min", "max", "avg"}[rng.Intn(5)]
				args[rng.Intn(len(args))] = fmt.Sprintf("%s(%s)", fn, pick())
			}
			fmt.Fprintf(&prog, "%s(%s) :- %s.\n", head, strings.Join(args, ", "), strings.Join(body, ", "))
			c.Queries = append(c.Queries, "?- "+strings.Join(body, ", ")+".")
		}
		qa, _ := atom(head, vars, true)
		c.Queries = append(c.Queries, "?- "+qa+".", fmt.Sprintf("?- %s, not e0(%s).", qa, strings.Repeat("X, ", arity["e0"]-1)+"X"))
	}
	c.Program = prog.String()
	return c
}

// FuzzEvalDifferential feeds fuzzed program text and EDB bytes through both
// evaluators. The EDB bytes are read as (predicate, arity, values...) records
// over the small domain genValues, so that joins find partners.
func FuzzEvalDifferential(f *testing.F) {
	f.Add("p(X, Y) :- e0(X, Y).\np(X, Z) :- p(X, Y), e0(Y, Z).", []byte{0, 2, 1, 2, 0, 2, 2, 3, 0, 2, 3, 1})
	f.Add("p(X) :- e0(X, _), not e1(X).\nq(X, count(Y)) :- e0(X, Y).", []byte{0, 2, 1, 2, 0, 2, 4, 2, 1, 1, 4})
	f.Add("p(X, E) :- e0(X).\ne0(Y) :- p(_, Y).", []byte{0, 1, 6})
	f.Add("p(V) :- e0(X), V = X * 2, V > 1.\np(V) :- p(X), V = X + 1.", []byte{0, 1, 1, 0, 1, 5})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		c := NewRandomCase(rng)
		f.Add(c.Program, encodeEDB(c.EDB))
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		prog, err := Parse(src)
		if err != nil || len(prog.Rules) > 8 {
			return
		}
		// The reference walks every combination of body tuples, so its cost
		// is the fact count to the power of the atoms joined. MaxFacts caps
		// the first (it is checked between rounds), the check here the second.
		var queries []string
		for _, r := range prog.Rules {
			atoms := 0
			for _, l := range r.Body {
				if l.Atom != nil && !l.Negated {
					atoms++
				}
			}
			if atoms > 3 || len(r.Body) > 5 {
				return
			}
			if len(r.Body) > 0 {
				queries = append(queries, (&Query{Body: r.Body}).String())
			}
			queries = append(queries, (&Query{Body: []Literal{{Atom: &r.Head}}}).String())
		}
		eng := &Engine{MaxNullDepth: 2, MaxIterations: 8, MaxFacts: 60}
		CheckSame(t, eng, src, decodeEDB(data), queries...)
	})
}

var fuzzPreds = []string{"e0", "e1", "e2", "p0", "p1", "p2", "p3", "q"}

// decodeEDB reads (predicate, arity, values...) records: at most 5 tuples
// per predicate, of arity 0 to 3.
func decodeEDB(data []byte) MapEDB {
	edb := MapEDB{}
	for len(data) >= 2 {
		pred, n := fuzzPreds[int(data[0])%len(fuzzPreds)], int(data[1])%4
		data = data[2:]
		if n > len(data) || len(edb[pred]) >= 5 {
			break
		}
		t := make(relation.Tuple, n)
		for i := range t {
			t[i] = genValues[int(data[i])%len(genValues)]
		}
		edb[pred], data = append(edb[pred], t), data[n:]
	}
	return edb
}

// encodeEDB is decodeEDB's inverse for EDBs over fuzzPreds and genValues.
func encodeEDB(edb MapEDB) []byte {
	var data []byte
	for pi, pred := range fuzzPreds {
		for _, t := range edb[pred] {
			data = append(data, byte(pi), byte(len(t)))
			for _, v := range t {
				for vi, g := range genValues {
					if g.Key() == v.Key() {
						data = append(data, byte(vi))
					}
				}
			}
		}
	}
	return data
}

package vadalog

import (
	"fmt"
	"testing"

	"vada/internal/relation"
)

func tup(vals ...any) relation.Tuple { return relation.NewTuple(vals...) }

// runProg runs src over edb, checking on the way that the reference
// evaluator derives the same (CheckSame).
func runProg(t *testing.T, src string, edb MapEDB) *Result {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	CheckSame(t, NewEngine(), src, edb)
	res, err := NewEngine().Run(prog, edb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestEvalTransitiveClosure(t *testing.T) {
	edb := MapEDB{"edge": {tup("a", "b"), tup("b", "c"), tup("c", "d")}}
	res := runProg(t, `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).`, edb)
	if got := res.Count("path"); got != 6 {
		t.Fatalf("path count = %d, want 6", got)
	}
	if !res.Has("path", tup("a", "d")) {
		t.Fatal("missing transitive fact a->d")
	}
}

func TestEvalCyclicGraphTerminates(t *testing.T) {
	edb := MapEDB{"edge": {tup("a", "b"), tup("b", "a")}}
	res := runProg(t, `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).`, edb)
	// a->a, a->b, b->a, b->b
	if got := res.Count("path"); got != 4 {
		t.Fatalf("path count = %d, want 4", got)
	}
}

func TestEvalLinearChainLarge(t *testing.T) {
	var edges []relation.Tuple
	n := 60
	for i := 0; i < n; i++ {
		edges = append(edges, tup(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+1)))
	}
	res := runProg(t, `
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).`, MapEDB{"edge": edges})
	want := (n + 1) * n / 2
	if got := res.Count("reach"); got != want {
		t.Fatalf("reach count = %d, want %d", got, want)
	}
}

func TestEvalNegationStratified(t *testing.T) {
	edb := MapEDB{
		"node": {tup("a"), tup("b"), tup("c")},
		"bad":  {tup("b")},
	}
	res := runProg(t, `good(X) :- node(X), not bad(X).`, edb)
	if res.Count("good") != 2 || res.Has("good", tup("b")) {
		t.Fatalf("negation wrong: %v", res.Facts("good"))
	}
}

func TestEvalNegationUnstratifiedRejected(t *testing.T) {
	prog := MustParse(`p(X) :- q(X), not p(X).`)
	if _, err := NewEngine().Run(prog, MapEDB{"q": {tup("a")}}); err == nil {
		t.Fatal("recursion through negation must be rejected")
	}
}

func TestEvalComparisonFilters(t *testing.T) {
	edb := MapEDB{"person": {tup("kid", 7), tup("teen", 16), tup("adult", 30)}}
	res := runProg(t, `grown(X) :- person(X, A), A >= 18.`, edb)
	if res.Count("grown") != 1 || !res.Has("grown", tup("adult")) {
		t.Fatalf("comparison wrong: %v", res.Facts("grown"))
	}
}

func TestEvalAllComparisonOps(t *testing.T) {
	edb := MapEDB{"n": {tup(1), tup(2), tup(3)}}
	cases := []struct {
		src  string
		want int
	}{
		{`r(X) :- n(X), X = 2.`, 1},
		{`r(X) :- n(X), X != 2.`, 2},
		{`r(X) :- n(X), X < 2.`, 1},
		{`r(X) :- n(X), X <= 2.`, 2},
		{`r(X) :- n(X), X > 2.`, 1},
		{`r(X) :- n(X), X >= 2.`, 2},
	}
	for _, c := range cases {
		res := runProg(t, c.src, edb)
		if got := res.Count("r"); got != c.want {
			t.Errorf("%s: count=%d, want %d", c.src, got, c.want)
		}
	}
}

func TestEvalAssignmentArithmetic(t *testing.T) {
	edb := MapEDB{"price": {tup("a", 10), tup("b", 20)}}
	res := runProg(t, `doubled(X, Y) :- price(X, P), Y = P * 2.`, edb)
	if !res.Has("doubled", tup("a", 20)) || !res.Has("doubled", tup("b", 40)) {
		t.Fatalf("assignment wrong: %v", res.Facts("doubled"))
	}
}

func TestEvalStringConcat(t *testing.T) {
	edb := MapEDB{"name": {tup("ada")}}
	res := runProg(t, `greet(G) :- name(N), G = "hi " + N.`, edb)
	if !res.Has("greet", tup("hi ada")) {
		t.Fatalf("concat wrong: %v", res.Facts("greet"))
	}
}

func TestEvalDivisionByZeroFailsLiteral(t *testing.T) {
	edb := MapEDB{"n": {tup(0), tup(2)}}
	res := runProg(t, `inv(X, Y) :- n(X), Y = 10 / X.`, edb)
	if res.Count("inv") != 1 || !res.Has("inv", tup(2, 5.0)) {
		t.Fatalf("division semantics wrong: %v", res.Facts("inv"))
	}
}

func TestEvalMixedIntFloatArith(t *testing.T) {
	edb := MapEDB{"v": {tup(3)}}
	res := runProg(t, `half(Y) :- v(X), Y = X / 2.`, edb)
	if !res.Has("half", tup(1.5)) {
		t.Fatalf("int/int division should be float: %v", res.Facts("half"))
	}
}

func TestEvalAggregates(t *testing.T) {
	edb := MapEDB{"dept": {
		tup("cs", "ada", 100),
		tup("cs", "bob", 50),
		tup("math", "carl", 70),
	}}
	res := runProg(t, `
headcount(D, count(N)) :- dept(D, N, _).
payroll(D, sum(S)) :- dept(D, _, S).
minpay(D, min(S)) :- dept(D, _, S).
maxpay(D, max(S)) :- dept(D, _, S).
avgpay(D, avg(S)) :- dept(D, _, S).`, edb)
	checks := []struct {
		pred string
		want relation.Tuple
	}{
		{"headcount", tup("cs", 2)},
		{"headcount", tup("math", 1)},
		{"payroll", tup("cs", 150)},
		{"minpay", tup("cs", 50)},
		{"maxpay", tup("cs", 100)},
		{"avgpay", tup("cs", 75.0)},
	}
	for _, c := range checks {
		if !res.Has(c.pred, c.want) {
			t.Errorf("%s missing %v; have %v", c.pred, c.want, res.Facts(c.pred))
		}
	}
}

func TestEvalAggregateOverIDB(t *testing.T) {
	edb := MapEDB{"edge": {tup("a", "b"), tup("b", "c")}}
	res := runProg(t, `
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
fanout(X, count(Y)) :- path(X, Y).`, edb)
	if !res.Has("fanout", tup("a", 2)) || !res.Has("fanout", tup("b", 1)) {
		t.Fatalf("fanout wrong: %v", res.Facts("fanout"))
	}
}

func TestEvalAggregateSetSemantics(t *testing.T) {
	// Duplicate EDB tuples must not double-count: facts are sets.
	edb := MapEDB{"item": {tup("x"), tup("x"), tup("y")}}
	res := runProg(t, `n(count(X)) :- item(X).`, edb)
	if !res.Has("n", tup(2)) {
		t.Fatalf("set semantics violated: %v", res.Facts("n"))
	}
}

func TestEvalAggRecursionRejected(t *testing.T) {
	prog := MustParse(`p(X, count(Y)) :- p(X, Y).`)
	if _, err := NewEngine().Run(prog, MapEDB{}); err == nil {
		t.Fatal("recursion through aggregation must be rejected")
	}
}

func TestEvalExistentialCreatesLabelledNull(t *testing.T) {
	edb := MapEDB{"person": {tup("ada"), tup("bob")}}
	res := runProg(t, `hasid(X, Id) :- person(X).`, edb)
	if res.Count("hasid") != 2 {
		t.Fatalf("hasid count = %d", res.Count("hasid"))
	}
	ids := map[string]bool{}
	for _, f := range res.Facts("hasid") {
		if !IsLabelledNull(f[1]) {
			t.Fatalf("expected labelled null, got %v", f[1])
		}
		ids[f[1].Str()] = true
	}
	if len(ids) != 2 {
		t.Fatalf("each person should get a distinct null: %v", ids)
	}
}

func TestEvalSkolemReuse(t *testing.T) {
	// Two rules deriving the same frontier must reuse the same null when the
	// rule and frontier coincide (restricted chase), so re-derivation does
	// not mint fresh nulls forever.
	edb := MapEDB{"a": {tup("x")}}
	res := runProg(t, `
b(X, N) :- a(X).
c(X, N) :- b(X, _), a(X).`, edb)
	if res.Count("b") != 1 {
		t.Fatalf("b should have exactly one fact, got %v", res.Facts("b"))
	}
}

// TestEvalSkolemFrontierIdentity pins that a labelled null is shared only by
// firings on the same frontier. Frontiers were once one string of Value.Key
// strings, each ended by a separator byte, and the two below joined alike:
// both firings got one null. (Not checked against the reference evaluator,
// whose fact sets are keyed by such strings too.)
func TestEvalSkolemFrontierIdentity(t *testing.T) {
	edb := MapEDB{"p": {tup("a\x1f\x00Sb", "c"), tup("a", "b\x1f\x00Sc")}}
	res, err := NewEngine().Run(MustParse(`q(X, Y, N) :- p(X, Y).`), edb)
	if err != nil {
		t.Fatal(err)
	}
	q := res.Facts("q")
	if len(q) != 2 || q[0][2].Same(q[1][2]) {
		t.Fatalf("q = %v: two frontiers, want two nulls", q)
	}
}

func TestEvalChaseDepthBounded(t *testing.T) {
	// p generates a successor for every element: unbounded without a depth
	// limit. With MaxNullDepth=3 we expect exactly 3 nulls beyond the seed.
	edb := MapEDB{"elem": {tup("seed")}}
	prog := MustParse(`
elem(Y) :- elem(X), succ(X, Y).
succ(X, Y) :- elem(X).`)
	eng := NewEngine()
	eng.MaxNullDepth = 3
	res, err := eng.Run(prog, edb)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Count("elem"); got != 4 { // seed + 3 nulls
		t.Fatalf("elem count = %d, want 4 (bounded chase)", got)
	}
}

func TestEvalFactRulesAndEDBMerge(t *testing.T) {
	edb := MapEDB{"p": {tup("from_edb")}}
	res := runProg(t, `p("from_prog"). q(X) :- p(X).`, edb)
	if res.Count("q") != 2 {
		t.Fatalf("q should merge EDB and program facts: %v", res.Facts("q"))
	}
}

func TestEvalUnsafeRuleRejected(t *testing.T) {
	for _, src := range []string{
		`p(X) :- q(Y).`,          // head var not bound: existential, fine
		`p(X) :- not q(X).`,      // negation over unbound var: unsafe
		`p(X) :- q(Y), X > Y.`,   // comparison cannot bind X: unsafe
		`p(X) :- q(Y), X = X+1.`, // self-referential assignment: unsafe
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		_, err = Analyze(prog)
		if src == `p(X) :- q(Y).` {
			if err != nil {
				t.Errorf("existential head should be allowed: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Analyze(%q) should fail", src)
		}
	}
}

func TestEvalStratumOrdering(t *testing.T) {
	// r depends negatively on q which depends on p: three strata.
	prog := MustParse(`
q(X) :- p(X).
r(X) :- s(X), not q(X).`)
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.StratumOf["r"] <= a.StratumOf["q"] {
		t.Fatalf("r must be above q: %v", a.StratumOf)
	}
	res := runProg(t, `
q(X) :- p(X).
r(X) :- s(X), not q(X).`, MapEDB{"p": {tup("a")}, "s": {tup("a"), tup("b")}})
	if res.Count("r") != 1 || !res.Has("r", tup("b")) {
		t.Fatalf("stratified result wrong: %v", res.Facts("r"))
	}
}

func TestEvalMaxFactsGuard(t *testing.T) {
	eng := NewEngine()
	eng.MaxFacts = 10
	var edges []relation.Tuple
	for i := 0; i < 10; i++ {
		edges = append(edges, tup(i, i+1))
	}
	prog := MustParse(`
r(X, Y) :- e(X, Y).
r(X, Z) :- r(X, Y), e(Y, Z).`)
	if _, err := eng.Run(prog, MapEDB{"e": edges}); err == nil {
		t.Fatal("MaxFacts guard should trip")
	}
}

func TestQueryBasics(t *testing.T) {
	edb := MapEDB{"edge": {tup("a", "b"), tup("b", "c")}}
	bindings, err := NewEngine().Query(`
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).`, `?- path("a", Y).`, edb)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %v", bindings)
	}
	seen := map[string]bool{}
	for _, b := range bindings {
		seen[b["Y"].Str()] = true
	}
	if !seen["b"] || !seen["c"] {
		t.Fatalf("missing answers: %v", bindings)
	}
}

func TestQueryWithComparisonAndNegation(t *testing.T) {
	edb := MapEDB{
		"n":   {tup(1), tup(2), tup(3), tup(4)},
		"bad": {tup(2)},
	}
	bindings, err := NewEngine().Query(``, `?- n(X), X > 1, not bad(X).`, edb)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %v", bindings)
	}
}

func TestQueryEDBOnlyPredicatesLoaded(t *testing.T) {
	// Predicate only referenced by the query, not the program.
	edb := MapEDB{"solo": {tup("x")}}
	ok, err := NewEngine().Ask(``, `?- solo(X).`, edb)
	if err != nil || !ok {
		t.Fatalf("Ask = %v, %v; want true", ok, err)
	}
	ok, err = NewEngine().Ask(``, `?- missing(X).`, edb)
	if err != nil || ok {
		t.Fatalf("Ask over empty predicate = %v, %v; want false", ok, err)
	}
}

func TestQueryDeduplicates(t *testing.T) {
	edb := MapEDB{"p": {tup("a", 1), tup("a", 2)}}
	bindings, err := NewEngine().Query(``, `?- p(X, _).`, edb)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 1 {
		t.Fatalf("projection should deduplicate: %v", bindings)
	}
}

func TestEvalSameHeadConstants(t *testing.T) {
	edb := MapEDB{"in": {tup("x")}}
	res := runProg(t, `out("const", X) :- in(X).`, edb)
	if !res.Has("out", tup("const", "x")) {
		t.Fatalf("constant head args wrong: %v", res.Facts("out"))
	}
}

func TestEvalSelfJoin(t *testing.T) {
	edb := MapEDB{"likes": {tup("a", "b"), tup("b", "a"), tup("a", "c")}}
	res := runProg(t, `mutual(X, Y) :- likes(X, Y), likes(Y, X).`, edb)
	if res.Count("mutual") != 2 {
		t.Fatalf("mutual = %v", res.Facts("mutual"))
	}
}

func TestEvalRepeatedVarInAtom(t *testing.T) {
	edb := MapEDB{"pair": {tup("a", "a"), tup("a", "b")}}
	res := runProg(t, `diag(X) :- pair(X, X).`, edb)
	if res.Count("diag") != 1 || !res.Has("diag", tup("a")) {
		t.Fatalf("repeated var unification wrong: %v", res.Facts("diag"))
	}
}

func TestEvalNullComparisonsFail(t *testing.T) {
	edb := MapEDB{"v": {relation.Tuple{relation.Null()}, tup(5)}}
	res := runProg(t, `big(X) :- v(X), X > 1.`, edb)
	if res.Count("big") != 1 {
		t.Fatalf("null should fail order comparisons: %v", res.Facts("big"))
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	var edges []relation.Tuple
	for i := 0; i < 100; i++ {
		edges = append(edges, tup(i, i+1))
	}
	prog := MustParse(`
r(X, Y) :- e(X, Y).
r(X, Z) :- r(X, Y), e(Y, Z).`)
	edb := MapEDB{"e": edges}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine().Run(prog, edb); err != nil {
			b.Fatal(err)
		}
	}
}

package vadalog

import (
	"strings"
	"testing"

	"vada/internal/relation"
)

// Edge-case coverage for the reasoner beyond the core semantics tests.

func TestLexerPositions(t *testing.T) {
	_, err := Parse("p(X) :- q(X).\nbad(@).")
	if err == nil || !strings.Contains(err.Error(), "2:") {
		t.Fatalf("error should carry the line number: %v", err)
	}
}

func TestLexerStringEscapesErrors(t *testing.T) {
	if _, err := tokenize(`p("a\qb").`); err == nil {
		t.Fatal("unknown escape should fail")
	}
	if _, err := tokenize(`p("unterminated`); err == nil {
		t.Fatal("unterminated string should fail")
	}
}

func TestNumberLexing(t *testing.T) {
	toks, err := tokenize("3.14 42 7.")
	if err != nil {
		t.Fatal(err)
	}
	// "7." lexes as number 7 then '.', because '.' not followed by a digit
	// terminates facts.
	if toks[0].text != "3.14" || toks[1].text != "42" || toks[2].text != "7" || toks[3].text != "." {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestParseFloatFact(t *testing.T) {
	p, err := Parse(`v(3.5).`)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Rules[0].Head.Args[0].(Const)
	if c.Val.Kind() != relation.KindFloat || c.Val.FloatVal() != 3.5 {
		t.Fatalf("float const = %v", c.Val)
	}
}

func TestQueryStringRendering(t *testing.T) {
	q := MustParseQuery(`?- p(X), X > 3, not r(X).`)
	s := q.String()
	q2, err := ParseQuery(s)
	if err != nil {
		t.Fatalf("query render %q not reparseable: %v", s, err)
	}
	if len(q2.Body) != 3 {
		t.Fatalf("round trip lost literals: %v", q2.Body)
	}
}

func TestAnalyzeAggErrors(t *testing.T) {
	// Aggregated var unbound.
	prog := MustParse(`t(D, sum(S)) :- d(D).`)
	if _, err := Analyze(prog); err == nil {
		t.Fatal("unbound aggregated var should fail analysis")
	}
	// Existential in aggregate head.
	prog = MustParse(`t(D, E, sum(S)) :- d(D, S).`)
	if _, err := Analyze(prog); err == nil {
		t.Fatal("existential in aggregate rule should fail analysis")
	}
	// Two aggregates.
	prog = MustParse(`t(D, sum(S), count(S)) :- d(D, S).`)
	if _, err := Analyze(prog); err == nil {
		t.Fatal("two aggregates should fail analysis")
	}
}

func TestEvalEmptyProgram(t *testing.T) {
	res, err := NewEngine().Run(&Program{}, MapEDB{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predicates()) != 0 {
		t.Fatalf("empty program predicates = %v", res.Predicates())
	}
}

func TestEvalConstantsOnlyRule(t *testing.T) {
	res := runProg(t, `flag(on) :- cond(x).`, MapEDB{"cond": {tup("x")}})
	if !res.Has("flag", tup("on")) {
		t.Fatal("constant head rule failed")
	}
	res = runProg(t, `flag(on) :- cond(x).`, MapEDB{})
	if res.Count("flag") != 0 {
		t.Fatal("rule fired without support")
	}
}

func TestEvalAssignmentBeforeUse(t *testing.T) {
	// The literal order in source has the assignment last; the analyzer
	// must reorder to bind Y before the comparison uses it.
	res := runProg(t, `r(X, Y) :- Y > 5, Y = X * 2, n(X).`, MapEDB{"n": {tup(2), tup(4)}})
	if res.Count("r") != 1 || !res.Has("r", tup(4, 8)) {
		t.Fatalf("reordering wrong: %v", res.Facts("r"))
	}
}

func TestEvalNegationOverIDB(t *testing.T) {
	res := runProg(t, `
even(X) :- n(X), X = 2.
odd(X) :- n(X), not even(X).`, MapEDB{"n": {tup(1), tup(2), tup(3)}})
	if res.Count("odd") != 2 {
		t.Fatalf("odd = %v", res.Facts("odd"))
	}
}

func TestEvalMutualRecursion(t *testing.T) {
	res := runProg(t, `
a(X) :- seed(X).
b(Y) :- a(X), next(X, Y).
a(Y) :- b(X), next(X, Y).`, MapEDB{
		"seed": {tup(0)},
		"next": {tup(0, 1), tup(1, 2), tup(2, 3)},
	})
	// a: 0, 2; b: 1, 3.
	if res.Count("a") != 2 || res.Count("b") != 2 {
		t.Fatalf("a=%v b=%v", res.Facts("a"), res.Facts("b"))
	}
}

func TestEvalComparisonBetweenTwoColumns(t *testing.T) {
	res := runProg(t, `cheaper(A, B) :- price(A, P1), price(B, P2), P1 < P2.`,
		MapEDB{"price": {tup("x", 10), tup("y", 20)}})
	if res.Count("cheaper") != 1 || !res.Has("cheaper", tup("x", "y")) {
		t.Fatalf("cheaper = %v", res.Facts("cheaper"))
	}
}

func TestQueryResultOnMissingVarsIsNull(t *testing.T) {
	// Vars bound only in some disjuncts cannot happen in conjunctive
	// queries, but anonymous underscore vars must not leak into answers.
	res := runProg(t, `p(a, b).`, MapEDB{})
	q := MustParseQuery(`?- p(X, _).`)
	answers, err := res.QueryResult(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || len(answers[0]) != 1 {
		t.Fatalf("answers = %v", answers)
	}
}

func TestAskParseErrors(t *testing.T) {
	if _, err := NewEngine().Ask(`p(X :-`, `?- p(X).`, MapEDB{}); err == nil {
		t.Fatal("bad program should error")
	}
	if _, err := NewEngine().Ask(``, `?- p(X`, MapEDB{}); err == nil {
		t.Fatal("bad query should error")
	}
}

func TestStratumOfEDBOnlyProgram(t *testing.T) {
	prog := MustParse(`out(X) :- in(X).`)
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Strata) != 1 || a.StratumOf["out"] != 0 {
		t.Fatalf("strata = %v", a.Strata)
	}
}

func TestDeepNegationChain(t *testing.T) {
	prog := MustParse(`
l1(X) :- base(X), not none(X).
l2(X) :- base(X), not l1(X).
l3(X) :- base(X), not l2(X).`)
	a, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.StratumOf["l3"] <= a.StratumOf["l2"] || a.StratumOf["l2"] <= a.StratumOf["l1"] {
		t.Fatalf("strata = %v", a.StratumOf)
	}
	res := runProg(t, prog.String(), MapEDB{"base": {tup("v")}})
	if res.Count("l1") != 1 || res.Count("l2") != 0 || res.Count("l3") != 1 {
		t.Fatalf("l1=%d l2=%d l3=%d", res.Count("l1"), res.Count("l2"), res.Count("l3"))
	}
}

func TestResultPredicatesSorted(t *testing.T) {
	res := runProg(t, `z(1). a(2). m(3).`, MapEDB{})
	preds := res.Predicates()
	if len(preds) != 3 || preds[0] != "a" || preds[2] != "z" {
		t.Fatalf("predicates = %v", preds)
	}
}

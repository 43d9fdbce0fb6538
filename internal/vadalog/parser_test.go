package vadalog

import (
	"strings"
	"testing"

	"vada/internal/relation"
)

func TestParseFact(t *testing.T) {
	p, err := Parse(`parent("alice", "bob").`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 1 || !p.Rules[0].IsFact() {
		t.Fatalf("expected one fact, got %v", p)
	}
	if p.Rules[0].Head.Pred != "parent" {
		t.Fatalf("pred = %q", p.Rules[0].Head.Pred)
	}
}

func TestParseRuleWithBody(t *testing.T) {
	p, err := Parse(`ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if len(r.Body) != 2 {
		t.Fatalf("body len = %d", len(r.Body))
	}
	if r.IsFact() {
		t.Fatal("rule is not a fact")
	}
}

func TestParseConstKinds(t *testing.T) {
	p, err := Parse(`vals("s", 42, 2.5, true, false, sym, -7, null).`)
	if err != nil {
		t.Fatal(err)
	}
	args := p.Rules[0].Head.Args
	wantKinds := []relation.Kind{
		relation.KindString, relation.KindInt, relation.KindFloat,
		relation.KindBool, relation.KindBool, relation.KindString,
		relation.KindInt, relation.KindNull,
	}
	for i, w := range wantKinds {
		c, ok := args[i].(Const)
		if !ok {
			t.Fatalf("arg %d not const: %v", i, args[i])
		}
		if c.Val.Kind() != w {
			t.Errorf("arg %d kind %v, want %v", i, c.Val.Kind(), w)
		}
	}
	if args[6].(Const).Val.IntVal() != -7 {
		t.Error("negative literal wrong")
	}
}

func TestParseNegationForms(t *testing.T) {
	for _, src := range []string{
		`p(X) :- q(X), not r(X).`,
		`p(X) :- q(X), !r(X).`,
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !p.Rules[0].Body[1].Negated {
			t.Errorf("%s: literal not negated", src)
		}
	}
}

func TestParseComparisonsAndArith(t *testing.T) {
	p, err := Parse(`adult(X) :- person(X, A), A >= 18.
price2(X, P2) :- price(X, P), P2 = P * 2 + 1.`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules[0].Body[1].Cmp == nil || p.Rules[0].Body[1].Cmp.Op != OpGe {
		t.Fatalf("comparison not parsed: %v", p.Rules[0])
	}
	cmp := p.Rules[1].Body[1].Cmp
	if cmp == nil || cmp.Op != OpEq {
		t.Fatalf("assignment not parsed: %v", p.Rules[1])
	}
	// Right side should be (P*2)+1 with precedence.
	be, ok := cmp.R.(BinExpr)
	if !ok || be.Op != OpAdd {
		t.Fatalf("expected top-level +, got %v", cmp.R)
	}
	if inner, ok := be.L.(BinExpr); !ok || inner.Op != OpMul {
		t.Fatalf("expected inner *, got %v", be.L)
	}
}

func TestParseParenthesisedExpr(t *testing.T) {
	p, err := Parse(`r(X, Y) :- s(X, A, B), Y = (A + B) * 2.`)
	if err != nil {
		t.Fatal(err)
	}
	be := p.Rules[0].Body[1].Cmp.R.(BinExpr)
	if be.Op != OpMul {
		t.Fatalf("parens not respected: %v", be)
	}
}

func TestParseAggregates(t *testing.T) {
	p, err := Parse(`total(D, sum(S)) :- dept(D, S).
n(count(X)) :- item(X).
lo(min(P)) :- price(P).
hi(max(P)) :- price(P).
mean(avg(P)) :- price(P).`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Rules[0].HasAggregation() {
		t.Fatal("aggregation not detected")
	}
	a := p.Rules[0].Head.Args[1].(Agg)
	if a.Fn != AggSum || a.Arg.Name != "S" {
		t.Fatalf("agg term wrong: %v", a)
	}
}

func TestAggregateNotAllowedInBody(t *testing.T) {
	// In body position count(X) parses as an atom named count — which is
	// legal Datalog; we just verify it doesn't parse as an aggregate.
	p, err := Parse(`p(X) :- count(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rules[0].Body[0].Atom == nil || p.Rules[0].Body[0].Atom.Pred != "count" {
		t.Fatal("body count(X) should be an ordinary atom")
	}
}

func TestParseAnonymousVarsAreFresh(t *testing.T) {
	p, err := Parse(`p(X) :- q(X, _, _).`)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Rules[0].Body[0].Atom
	v1 := a.Args[1].(Var).Name
	v2 := a.Args[2].(Var).Name
	if v1 == v2 {
		t.Fatalf("anonymous vars must be distinct, both %q", v1)
	}
}

func TestParseComments(t *testing.T) {
	src := `% leading comment
p("a"). // trailing comment style two
% another
q("b").`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(p.Rules))
	}
}

func TestParseStringEscapes(t *testing.T) {
	p, err := Parse(`p("line\nbreak\ttab\"quote\\slash").`)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Rules[0].Head.Args[0].(Const).Val.Str()
	want := "line\nbreak\ttab\"quote\\slash"
	if got != want {
		t.Fatalf("escape parse = %q, want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`p(X`,               // unterminated atom
		`p(X) :- q(X)`,      // missing period
		`p(X) :-`,           // empty body
		`p("unterminated).`, // unterminated string
		`p(X) :- q(X), .`,   // dangling comma
		`:- q(X).`,          // missing head
		`p(X) :- q(X. )`,    // stray period
		`p("bad\escape").`,  // unknown escape
		`p(@).`,             // illegal character
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseQueryForms(t *testing.T) {
	q, err := ParseQuery(`?- parent(X, Y), X != Y.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "X" || q.Vars[1] != "Y" {
		t.Fatalf("query vars = %v", q.Vars)
	}
	// Optional ?- and .
	q2, err := ParseQuery(`parent(X, Y)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Body) != 1 {
		t.Fatalf("query body = %v", q2.Body)
	}
	if _, err := ParseQuery(`parent(X, Y). extra`); err == nil {
		t.Error("trailing garbage should fail")
	}
}

func TestQueryVarsExcludeAnonymous(t *testing.T) {
	q, err := ParseQuery(`?- p(X, _), q(_, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 {
		t.Fatalf("anonymous vars should be excluded from answers: %v", q.Vars)
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	srcs := []string{
		`ancestor(X, Z) :- parent(X, Y), ancestor(Y, Z).`,
		`adult(X) :- person(X, A), A >= 18.`,
		`p(X) :- q(X), not r(X).`,
		`total(D, sum(S)) :- dept(D, S).`,
	}
	for _, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		rendered := p1.String()
		p2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q: %v", rendered, err)
		}
		if p2.String() != rendered {
			t.Errorf("round trip unstable:\n%s\nvs\n%s", rendered, p2.String())
		}
	}
}

func TestExistentialVars(t *testing.T) {
	p := MustParse(`person(X, N) :- name(X), N = 1.
hasid(X, Id) :- person2(X).`)
	if vars := p.Rules[0].ExistentialVars(); len(vars) != 0 {
		t.Fatalf("rule 0 existentials = %v, want none", vars)
	}
	if vars := p.Rules[1].ExistentialVars(); len(vars) != 1 || vars[0] != "Id" {
		t.Fatalf("rule 1 existentials = %v, want [Id]", vars)
	}
}

func TestHeadAndBodyPredicates(t *testing.T) {
	p := MustParse(`a(X) :- b(X), c(X). d(X) :- a(X).`)
	if got := strings.Join(p.HeadPredicates(), ","); got != "a,d" {
		t.Fatalf("heads = %s", got)
	}
	if got := strings.Join(p.BodyPredicates(), ","); got != "a,b,c" {
		t.Fatalf("bodies = %s", got)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse(`p(`)
}

func TestMustParseQueryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery should panic on bad input")
		}
	}()
	MustParseQuery(`p(`)
}

// MustParse parses a program and panics on error; for programs embedded as
// code literals.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// MustParseQuery parses a query and panics on error.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Ask is AskParsed for a program and a query given as text, parsed on every
// call: the program first, then the query.
func (e *Engine) Ask(programSrc, querySrc string, edb EDB) (bool, error) {
	prog, err := Parse(programSrc)
	if err != nil {
		return false, err
	}
	q, err := ParseQuery(querySrc)
	if err != nil {
		return false, err
	}
	return e.AskParsed(prog, q, edb)
}

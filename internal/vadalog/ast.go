// Package vadalog implements the reasoning substrate of VADA: a Datalog±
// engine in the spirit of the Vadalog language the paper builds on [2].
//
// The engine supports:
//
//   - plain Datalog with recursion, evaluated semi-naively;
//   - stratified negation ("not p(X)");
//   - comparison and arithmetic built-ins (X > 3, Y = P * 2);
//   - stratified aggregation in rule heads (count/sum/min/max/avg);
//   - existential quantification in rule heads (Datalog± tuple-generating
//     dependencies), realised through labelled nulls created by a bounded
//     restricted chase (see Engine.MaxNullDepth).
//
// Evaluation is compiled: each rule or query body becomes a plan (plan.go)
// whose variables are slots of one flat frame and whose atoms probe hash
// indexes on the argument positions bound when they are reached (index.go).
// Facts keep derivation order — rules in program order, body matches in
// insertion order — and callers' result digests depend on it.
//
// Within VADA, the engine plays the three roles the paper assigns to
// Vadalog: transducer input dependencies are queries evaluated over the
// knowledge base, orchestration conditions are rules, and schema mappings
// are programs whose EDB is the source data.
package vadalog

import (
	"fmt"
	"strings"

	"vada/internal/relation"
)

// Term is a constant, variable or (in rule heads only) an aggregate term.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Var is a Datalog variable. Variables start with an upper-case letter or
// '_' in the surface syntax. The anonymous variable "_" is parsed into a
// fresh variable per occurrence.
type Var struct {
	// Name is the variable name, unique within a rule for anonymous vars.
	Name string
}

func (Var) isTerm() {}

// String returns the variable name.
func (v Var) String() string { return v.Name }

// Const is a constant term wrapping a relation.Value.
type Const struct {
	// Val is the constant's value.
	Val relation.Value
}

func (Const) isTerm() {}

// String renders the constant in re-parseable form.
func (c Const) String() string {
	if c.Val.Kind() == relation.KindString {
		return fmt.Sprintf("%q", c.Val.Str())
	}
	if c.Val.IsNull() {
		return "null"
	}
	return c.Val.String()
}

// AggFn enumerates the supported aggregation functions.
type AggFn string

// Supported aggregation functions.
const (
	AggCount AggFn = "count"
	AggSum   AggFn = "sum"
	AggMin   AggFn = "min"
	AggMax   AggFn = "max"
	AggAvg   AggFn = "avg"
)

// Agg is an aggregate head term such as count(X) or sum(P). It may only
// appear in rule heads; the parser rejects it elsewhere.
type Agg struct {
	// Fn is the aggregation function.
	Fn AggFn
	// Arg is the aggregated variable.
	Arg Var
}

func (Agg) isTerm() {}

// String renders the aggregate term, e.g. "sum(P)".
func (a Agg) String() string { return fmt.Sprintf("%s(%s)", a.Fn, a.Arg.Name) }

// Atom is a predicate applied to terms, e.g. match(S, T, Score).
type Atom struct {
	// Pred is the predicate name.
	Pred string
	// Args are the argument terms.
	Args []Term
}

// String renders the atom.
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return fmt.Sprintf("%s(%s)", a.Pred, strings.Join(parts, ", "))
}

// CmpOp enumerates comparison operators usable in rule bodies.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "!="
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Expr is an arithmetic expression over terms: a Term or a BinExpr.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// TermExpr lifts a Term into an expression.
type TermExpr struct {
	// T is the underlying term (Var or Const; Agg is not allowed here).
	T Term
}

func (TermExpr) isExpr() {}

// String renders the underlying term.
func (e TermExpr) String() string { return e.T.String() }

// ArithOp enumerates arithmetic operators.
type ArithOp string

// Arithmetic operators. Addition concatenates strings.
const (
	OpAdd ArithOp = "+"
	OpSub ArithOp = "-"
	OpMul ArithOp = "*"
	OpDiv ArithOp = "/"
)

// BinExpr is a binary arithmetic expression.
type BinExpr struct {
	// Op is the operator.
	Op ArithOp
	// L and R are the operands.
	L, R Expr
}

func (BinExpr) isExpr() {}

// String renders the expression with explicit parentheses.
func (e BinExpr) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }

// Literal is one conjunct of a rule body: a positive or negated atom, or a
// comparison between expressions.
type Literal struct {
	// Atom is non-nil for (possibly negated) relational literals.
	Atom *Atom
	// Negated marks "not atom" literals; only meaningful when Atom != nil.
	Negated bool
	// Cmp is non-nil for comparison literals.
	Cmp *Comparison
}

// Comparison is a built-in literal comparing two expressions. When Op is
// OpEq and exactly one side is a single unbound variable, the comparison
// acts as an assignment binding that variable.
type Comparison struct {
	// Op is the comparison operator.
	Op CmpOp
	// L and R are the compared expressions.
	L, R Expr
}

// String renders the literal.
func (l Literal) String() string {
	switch {
	case l.Cmp != nil:
		return fmt.Sprintf("%s %s %s", l.Cmp.L, l.Cmp.Op, l.Cmp.R)
	case l.Negated:
		return "not " + l.Atom.String()
	default:
		return l.Atom.String()
	}
}

// Rule is a Vadalog rule: Head :- Body. A rule with an empty body and a
// ground head is a fact.
type Rule struct {
	// Head is the rule head. Head variables that do not occur in the body
	// are existential and are instantiated with labelled nulls.
	Head Atom
	// Body is the conjunctive body; empty for facts.
	Body []Literal
}

// IsFact reports whether the rule is a ground fact (empty body, no vars).
func (r Rule) IsFact() bool {
	if len(r.Body) != 0 {
		return false
	}
	for _, t := range r.Head.Args {
		if _, ok := t.(Const); !ok {
			return false
		}
	}
	return true
}

// HasAggregation reports whether the head contains an aggregate term.
func (r Rule) HasAggregation() bool {
	for _, t := range r.Head.Args {
		if _, ok := t.(Agg); ok {
			return true
		}
	}
	return false
}

// ExistentialVars returns head variables that do not occur anywhere in the
// body — the Datalog± existentials of the rule.
func (r Rule) ExistentialVars() []string {
	bound := r.bodyVars()
	var out []string
	seen := map[string]bool{}
	for _, t := range r.Head.Args {
		v, ok := t.(Var)
		if !ok {
			continue
		}
		if !bound[v.Name] && !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v.Name)
		}
	}
	return out
}

func (r Rule) bodyVars() map[string]bool {
	vars := map[string]bool{}
	for _, l := range r.Body {
		if l.Atom != nil {
			for _, t := range l.Atom.Args {
				if v, ok := t.(Var); ok {
					vars[v.Name] = true
				}
			}
		}
		if l.Cmp != nil {
			collectExprVars(l.Cmp.L, vars)
			collectExprVars(l.Cmp.R, vars)
		}
	}
	return vars
}

func collectExprVars(e Expr, into map[string]bool) {
	switch x := e.(type) {
	case TermExpr:
		if v, ok := x.T.(Var); ok {
			into[v.Name] = true
		}
	case BinExpr:
		collectExprVars(x.L, into)
		collectExprVars(x.R, into)
	}
}

// String renders the rule in surface syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return fmt.Sprintf("%s :- %s.", r.Head.String(), strings.Join(parts, ", "))
}

// Program is a parsed Vadalog program: an ordered list of rules and facts.
type Program struct {
	// Rules holds all rules, including facts.
	Rules []Rule
}

// String renders the program, one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// HeadPredicates returns the set of predicates defined by rule heads (the
// IDB predicates), sorted.
func (p *Program) HeadPredicates() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	out := make([]string, 0, len(set))
	for pred := range set {
		out = append(out, pred)
	}
	sortStrings(out)
	return out
}

// BodyPredicates returns every predicate referenced in rule bodies, sorted.
func (p *Program) BodyPredicates() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Atom != nil {
				set[l.Atom.Pred] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for pred := range set {
		out = append(out, pred)
	}
	sortStrings(out)
	return out
}

// Query is a parsed query: a conjunctive body plus the variables to report.
type Query struct {
	// Vars are the distinct variables of the query in order of first
	// occurrence; query answers are bindings of these.
	Vars []string
	// Body is the conjunctive body of the query.
	Body []Literal
}

// String renders the query in surface syntax.
func (q *Query) String() string {
	parts := make([]string, len(q.Body))
	for i, l := range q.Body {
		parts[i] = l.String()
	}
	return "?- " + strings.Join(parts, ", ") + "."
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

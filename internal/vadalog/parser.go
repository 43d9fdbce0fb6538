package vadalog

import (
	"fmt"
	"strconv"
	"strings"

	"vada/internal/relation"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks    []token
	pos     int
	anonSeq int // sequence for anonymous variables
}

// Parse parses a Vadalog program: a sequence of facts and rules, each
// terminated by '.'.
func Parse(src string) (*Program, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.cur().kind != tokEOF {
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// ParseQuery parses a query of the form "?- lit, lit, ... ." (the leading
// "?-" and trailing "." are both optional).
func ParseQuery(src string) (*Query, error) {
	toks, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if p.cur().kind == tokPunct && p.cur().text == "?-" {
		p.pos++
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct && p.cur().text == "." {
		p.pos++
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("vadalog: unexpected %s after query", p.cur())
	}
	q := &Query{Body: body}
	seen := map[string]bool{}
	for _, l := range body {
		for _, v := range literalVars(l) {
			if !seen[v] && !strings.HasPrefix(v, "_$") {
				seen[v] = true
				q.Vars = append(q.Vars, v)
			}
		}
	}
	return q, nil
}

func literalVars(l Literal) []string {
	vars := map[string]bool{}
	var order []string
	add := func(name string) {
		if !vars[name] {
			vars[name] = true
			order = append(order, name)
		}
	}
	if l.Atom != nil {
		for _, t := range l.Atom.Args {
			if v, ok := t.(Var); ok {
				add(v.Name)
			}
		}
	}
	if l.Cmp != nil {
		m := map[string]bool{}
		collectExprVars(l.Cmp.L, m)
		collectExprVars(l.Cmp.R, m)
		for v := range m {
			add(v)
		}
	}
	return order
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) errorf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("vadalog: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(text string) error {
	t := p.cur()
	if t.kind != tokPunct || t.text != text {
		return p.errorf("expected %q, found %s", text, t)
	}
	p.pos++
	return nil
}

// parseRule parses `head.` or `head :- body.`.
func (p *parser) parseRule() (Rule, error) {
	head, err := p.parseAtom(true)
	if err != nil {
		return Rule{}, err
	}
	t := p.cur()
	if t.kind == tokPunct && t.text == "." {
		p.pos++
		return Rule{Head: head}, nil
	}
	if err := p.expectPunct(":-"); err != nil {
		return Rule{}, err
	}
	body, err := p.parseBody()
	if err != nil {
		return Rule{}, err
	}
	if err := p.expectPunct("."); err != nil {
		return Rule{}, err
	}
	return Rule{Head: head, Body: body}, nil
}

func (p *parser) parseBody() ([]Literal, error) {
	var body []Literal
	for {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		body = append(body, lit)
		t := p.cur()
		if t.kind == tokPunct && t.text == "," {
			p.pos++
			continue
		}
		return body, nil
	}
}

// parseLiteral parses `not atom`, `!atom`, `atom` or a comparison.
func (p *parser) parseLiteral() (Literal, error) {
	t := p.cur()
	// Negation: "not atom" or "!atom".
	if (t.kind == tokIdent && t.text == "not") || (t.kind == tokPunct && t.text == "!") {
		p.pos++
		a, err := p.parseAtom(false)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Atom: &a, Negated: true}, nil
	}
	// An atom if an identifier followed by '(' — unless what follows the
	// closing structure is a comparison operator, which cannot happen for
	// atoms, so ident+'(' is unambiguous in this grammar (expressions use
	// parens only around sub-expressions, and start with '(' var or const).
	if t.kind == tokIdent && p.peekIs(1, "(") {
		a, err := p.parseAtom(false)
		if err != nil {
			return Literal{}, err
		}
		return Literal{Atom: &a}, nil
	}
	// Otherwise: comparison expression.
	l, err := p.parseExpr()
	if err != nil {
		return Literal{}, err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return Literal{}, err
	}
	r, err := p.parseExpr()
	if err != nil {
		return Literal{}, err
	}
	return Literal{Cmp: &Comparison{Op: op, L: l, R: r}}, nil
}

func (p *parser) peekIs(ahead int, text string) bool {
	i := p.pos + ahead
	if i >= len(p.toks) {
		return false
	}
	return p.toks[i].kind == tokPunct && p.toks[i].text == text
}

func (p *parser) parseCmpOp() (CmpOp, error) {
	t := p.cur()
	if t.kind != tokPunct {
		return "", p.errorf("expected comparison operator, found %s", t)
	}
	switch t.text {
	case "=", "!=", "<", "<=", ">", ">=":
		p.pos++
		return CmpOp(t.text), nil
	default:
		return "", p.errorf("expected comparison operator, found %s", t)
	}
}

// parseAtom parses pred(term, ...). In head position aggregate terms are
// allowed.
func (p *parser) parseAtom(isHead bool) (Atom, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return Atom{}, p.errorf("expected predicate name, found %s", t)
	}
	pred := t.text
	p.pos++
	if err := p.expectPunct("("); err != nil {
		return Atom{}, err
	}
	var args []Term
	if !(p.cur().kind == tokPunct && p.cur().text == ")") {
		for {
			term, err := p.parseTerm(isHead)
			if err != nil {
				return Atom{}, err
			}
			args = append(args, term)
			if p.cur().kind == tokPunct && p.cur().text == "," {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return Atom{}, err
	}
	return Atom{Pred: pred, Args: args}, nil
}

// parseTerm parses a variable, constant, or (in heads) an aggregate.
func (p *parser) parseTerm(isHead bool) (Term, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		p.pos++
		name := t.text
		if name == "_" {
			p.anonSeq++
			name = fmt.Sprintf("_$%d", p.anonSeq)
		}
		return Var{Name: name}, nil
	case tokString:
		p.pos++
		return Const{Val: relation.String(t.text)}, nil
	case tokNumber:
		p.pos++
		return numberConst(t.text)
	case tokPunct:
		if t.text == "-" { // negative number literal
			p.pos++
			n := p.cur()
			if n.kind != tokNumber {
				return nil, p.errorf("expected number after '-', found %s", n)
			}
			p.pos++
			c, err := numberConst(n.text)
			if err != nil {
				return nil, err
			}
			cc := c.(Const)
			if cc.Val.Kind() == relation.KindInt {
				return Const{Val: relation.Int(-cc.Val.IntVal())}, nil
			}
			return Const{Val: relation.Float(-cc.Val.FloatVal())}, nil
		}
		return nil, p.errorf("expected term, found %s", t)
	case tokIdent:
		// Aggregates in heads: count(X) etc.
		if isHead && p.peekIs(1, "(") {
			switch AggFn(t.text) {
			case AggCount, AggSum, AggMin, AggMax, AggAvg:
				fn := AggFn(t.text)
				p.pos += 2 // ident '('
				vt := p.cur()
				if vt.kind != tokVar {
					return nil, p.errorf("aggregate %s expects a variable, found %s", fn, vt)
				}
				p.pos++
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return Agg{Fn: fn, Arg: Var{Name: vt.text}}, nil
			}
		}
		// Symbols: true/false/null special-cased, other lower-case
		// identifiers are string constants (Datalog convention).
		p.pos++
		switch t.text {
		case "true":
			return Const{Val: relation.Bool(true)}, nil
		case "false":
			return Const{Val: relation.Bool(false)}, nil
		case "null":
			return Const{Val: relation.Null()}, nil
		default:
			return Const{Val: relation.String(t.text)}, nil
		}
	default:
		return nil, p.errorf("expected term, found %s", t)
	}
}

func numberConst(text string) (Term, error) {
	if strings.Contains(text, ".") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("vadalog: bad float literal %q: %w", text, err)
		}
		return Const{Val: relation.Float(f)}, nil
	}
	i, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("vadalog: bad int literal %q: %w", text, err)
	}
	return Const{Val: relation.Int(i)}, nil
}

// parseExpr parses arithmetic with the usual precedence: (* /) over (+ -).
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseMulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokPunct && (t.text == "+" || t.text == "-") {
			p.pos++
			r, err := p.parseMulExpr()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: ArithOp(t.text), L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMulExpr() (Expr, error) {
	l, err := p.parsePrimaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokPunct && (t.text == "*" || t.text == "/") {
			p.pos++
			r, err := p.parsePrimaryExpr()
			if err != nil {
				return nil, err
			}
			l = BinExpr{Op: ArithOp(t.text), L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parsePrimaryExpr() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct && t.text == "(" {
		p.pos++
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	term, err := p.parseTerm(false)
	if err != nil {
		return nil, err
	}
	return TermExpr{T: term}, nil
}

package vadalog

import "vada/internal/relation"

// A plan is a rule or query body compiled for evaluation: the literals in
// the order analysis chose, every variable replaced by a slot of one flat
// frame. Which variables are bound when a literal is reached follows from
// the order alone, so it is decided here, once: every atom argument becomes
// a constant to compare, a slot to compare, or a slot to fill. Nothing is
// ever unbound — a literal reads only slots that an earlier literal (or an
// earlier argument of the same atom) filled on the current path, and
// backtracking into a literal overwrites the slots that literal fills.
type plan struct {
	steps  []step
	slotOf map[string]int // variable name -> frame slot
	frame  []relation.Value
}

type argMode uint8

const (
	argConst argMode = iota // the tuple's value must equal val
	argCheck                // the tuple's value must equal the slot's
	argBind                 // the slot takes the tuple's value
)

type arg struct {
	mode argMode
	slot int
	val  relation.Value
}

// step is one body literal of a plan.
type step struct {
	lit int       // index of the literal in the body
	set *tupleSet // atoms: the facts read; nil when the predicate has none
	neg bool
	// args mirror the atom's arguments. keyCols are the positions bound on
	// entry (constants and slots filled by earlier literals) and keyMask
	// their bit set: a positive atom probes set's index on them. A negated
	// atom is ground on entry and looks its tuple, built in ground, up whole.
	args    []arg
	keyCols []int
	keyMask uint64
	ground  relation.Tuple

	cmp *cmpStep
}

// cmpStep is a comparison literal. With assign >= 0 it is an assignment:
// the slot takes the value of l.
type cmpStep struct {
	op     CmpOp
	l, r   *expr
	assign int
}

// expr is a compiled arithmetic expression: a constant, a slot, or an
// operation on two expressions. A term that can never be evaluated (an
// aggregate, which the parser keeps out of bodies) compiles to slot -1.
type expr struct {
	leaf bool
	slot int
	val  relation.Value
	op   ArithOp
	l, r *expr
}

// compileBody compiles body, evaluated in order, against the facts sets holds
// per predicate.
func compileBody(body []Literal, order []int, sets map[string]*tupleSet) *plan {
	p := &plan{slotOf: map[string]int{}}
	bound := map[string]bool{}
	slot := func(name string) int {
		s, ok := p.slotOf[name]
		if !ok {
			s = len(p.slotOf)
			p.slotOf[name] = s
		}
		return s
	}
	for _, li := range order {
		l := body[li]
		st := step{lit: li}
		if l.Cmp != nil {
			st.cmp = compileCmp(l.Cmp, bound, slot)
			p.steps = append(p.steps, st)
			continue
		}
		st.set, st.neg = sets[l.Atom.Pred], l.Negated
		st.args = make([]arg, len(l.Atom.Args))
		for i, t := range l.Atom.Args {
			onEntry := false
			switch x := t.(type) {
			case Const:
				st.args[i], onEntry = arg{mode: argConst, val: x.Val}, true
			case Var:
				st.args[i], onEntry = arg{mode: argCheck, slot: slot(x.Name)}, bound[x.Name]
			default: // an aggregate term, which the parser keeps out of bodies
				st.args[i] = arg{mode: argConst, slot: -1}
			}
			if onEntry && i < 64 {
				st.keyCols = append(st.keyCols, i)
				st.keyMask |= 1 << i
			}
		}
		if st.neg {
			st.ground = make(relation.Tuple, len(st.args))
		} else {
			// The first occurrence of a variable that is free on entry
			// fills its slot; later ones in the same atom compare.
			for i, t := range l.Atom.Args {
				if v, ok := t.(Var); ok && !bound[v.Name] {
					st.args[i].mode = argBind
					bound[v.Name] = true
				}
			}
		}
		p.steps = append(p.steps, st)
	}
	p.frame = make([]relation.Value, len(p.slotOf))
	return p
}

func compileCmp(c *Comparison, bound map[string]bool, slot func(string) int) *cmpStep {
	cs := &cmpStep{op: c.Op, assign: -1}
	free := func(e Expr) (string, bool) {
		v, ok := singleVar(e)
		return v, ok && !bound[v]
	}
	// Analysis schedules a comparison with a free variable only as an
	// assignment: "=" with that variable alone on one side.
	if v, ok := free(c.R); ok && c.Op == OpEq {
		cs.l, cs.assign = compileExpr(c.L, slot), slot(v)
		bound[v] = true
	} else if v, ok := free(c.L); ok && c.Op == OpEq {
		cs.l, cs.assign = compileExpr(c.R, slot), slot(v)
		bound[v] = true
	} else {
		cs.l, cs.r = compileExpr(c.L, slot), compileExpr(c.R, slot)
	}
	return cs
}

// singleVar reports whether e is a lone variable, and its name.
func singleVar(e Expr) (string, bool) {
	te, ok := e.(TermExpr)
	if !ok {
		return "", false
	}
	v, ok := te.T.(Var)
	return v.Name, ok
}

func compileExpr(e Expr, slot func(string) int) *expr {
	switch x := e.(type) {
	case TermExpr:
		switch t := x.T.(type) {
		case Const:
			return &expr{leaf: true, slot: -1, val: t.Val}
		case Var:
			return &expr{leaf: true, slot: slot(t.Name)}
		}
	case BinExpr:
		return &expr{op: x.Op, l: compileExpr(x.L, slot), r: compileExpr(x.R, slot)}
	}
	return &expr{slot: -1}
}

// eval evaluates the expression over frame; ok=false when an operation is
// inapplicable (division by zero, a non-numeric operand).
func (e *expr) eval(frame []relation.Value) (relation.Value, bool) {
	switch {
	case e.leaf && e.slot >= 0:
		return frame[e.slot], true
	case e.leaf:
		return e.val, true
	case e.l == nil:
		return relation.Null(), false
	}
	l, lok := e.l.eval(frame)
	r, rok := e.r.eval(frame)
	if !lok || !rok {
		return relation.Null(), false
	}
	return applyArith(e.op, l, r)
}

// run evaluates the plan and calls emit with the frame once per way of
// satisfying the body, in derivation order, until emit returns false. With
// deltaLit >= 0 the positive atom that is body literal deltaLit reads delta
// instead of its own set (the semi-naive restriction).
func (p *plan) run(deltaLit int, delta *tupleSet, emit func(frame []relation.Value) bool) {
	m := machine{plan: p, deltaLit: deltaLit, delta: delta, emit: emit}
	m.step(0)
}

type machine struct {
	*plan
	deltaLit int
	delta    *tupleSet
	emit     func(frame []relation.Value) bool
}

// step evaluates steps[i:] under the current frame; false means emit asked
// to stop.
func (m *machine) step(i int) bool {
	if i == len(m.steps) {
		return m.emit(m.frame)
	}
	st := &m.steps[i]
	switch {
	case st.cmp != nil:
		c := st.cmp
		l, ok := c.l.eval(m.frame)
		if !ok {
			// An arithmetic failure: the literal simply fails.
			return true
		}
		if c.assign >= 0 {
			m.frame[c.assign] = l
			return m.step(i + 1)
		}
		if r, ok := c.r.eval(m.frame); !ok || !satisfies(c.op, l, r) {
			return true
		}
		return m.step(i + 1)
	case st.neg:
		if st.set != nil {
			for k, a := range st.args {
				st.ground[k] = a.val
				if a.mode == argCheck {
					st.ground[k] = m.frame[a.slot]
				}
			}
			if st.set.has(st.ground) {
				return true
			}
		}
		return m.step(i + 1)
	}
	src := st.set
	if st.lit == m.deltaLit {
		src = m.delta
	}
	if src == nil {
		return true
	}
	if len(st.keyCols) == 0 {
		for _, t := range src.tuples {
			if st.match(t, m.frame) && !m.step(i+1) {
				return false
			}
		}
		return true
	}
	var h uint64
	for _, c := range st.keyCols {
		v := st.args[c].val
		if st.args[c].mode == argCheck {
			v = m.frame[st.args[c].slot]
		}
		h = mixHash(h, hashValue(v))
	}
	ix := src.index(st.keyMask, st.keyCols)
	for pos := ix.first(h); pos >= 0; pos = ix.next[pos] {
		if st.match(src.tuples[pos], m.frame) && !m.step(i+1) {
			return false
		}
	}
	return true
}

// match unifies the atom with t: constants and bound slots must equal t's
// values, free slots take them. A failed match may leave slots this atom
// fills half-written; nothing reads them before the next match rewrites them.
func (st *step) match(t relation.Tuple, frame []relation.Value) bool {
	if len(t) != len(st.args) {
		return false
	}
	for i, a := range st.args {
		switch a.mode {
		case argConst:
			if a.slot < 0 || !a.val.Equal(t[i]) {
				return false
			}
		case argCheck:
			if !frame[a.slot].Equal(t[i]) {
				return false
			}
		default:
			frame[a.slot] = t[i]
		}
	}
	return true
}

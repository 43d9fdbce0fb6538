package vadalog

// The refEvaluator this package shipped before the compiled one, kept as the
// differential reference (differential_test.go): a nested-loop walk over
// src.tuples per body atom, a string-keyed Binding map copied per candidate
// tuple, tuple sets keyed by Tuple.Key. Identifiers carry a ref prefix where
// they would collide with the package's own; the code is otherwise unchanged.
// It shares satisfies, applyArith, aggregate and singleVar with the package.

import (
	"fmt"
	"sort"
	"strings"

	"vada/internal/relation"
)

// refResult holds the facts derived by a program run (IDB ∪ referenced EDB).
type refResult struct {
	store map[string]*refTupleSet
}

type refTupleSet struct {
	keys   map[string]bool
	tuples []relation.Tuple
}

func newRefTupleSet() *refTupleSet { return &refTupleSet{keys: map[string]bool{}} }

func (s *refTupleSet) add(t relation.Tuple) bool {
	k := t.Key()
	if s.keys[k] {
		return false
	}
	s.keys[k] = true
	s.tuples = append(s.tuples, t)
	return true
}

// Facts returns the tuples derived for pred (shared slices; treat as
// read-only).
func (r *refResult) Facts(pred string) []relation.Tuple {
	s, ok := r.store[pred]
	if !ok {
		return nil
	}
	return s.tuples
}

// Count returns the number of facts for pred.
func (r *refResult) Count(pred string) int { return len(r.Facts(pred)) }

// Has reports whether the exact fact was derived.
func (r *refResult) Has(pred string, t relation.Tuple) bool {
	s, ok := r.store[pred]
	if !ok {
		return false
	}
	return s.keys[t.Key()]
}

// Predicates lists predicates with at least one fact, sorted.
func (r *refResult) Predicates() []string {
	var out []string
	for p, s := range r.store {
		if len(s.tuples) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// refEvaluator carries the mutable state of one Run.
type refEvaluator struct {
	eng       *Engine
	prog      *Program
	analysis  *Analysis
	facts     map[string]*refTupleSet
	nullDepth map[string]int // labelled null name -> depth
	nullSeq   int
	skolem    map[string]relation.Value // rule+frontier key -> null
	total     int
}

// refRun evaluates the program against the EDB and returns all facts.
func (e *Engine) refRun(prog *Program, edb EDB) (*refResult, error) {
	analysis, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	ev := &refEvaluator{
		eng:       e,
		prog:      prog,
		analysis:  analysis,
		facts:     map[string]*refTupleSet{},
		nullDepth: map[string]int{},
		skolem:    map[string]relation.Value{},
	}

	// Seed every referenced predicate from the EDB.
	seed := func(pred string) {
		if _, ok := ev.facts[pred]; ok {
			return
		}
		set := newRefTupleSet()
		ev.facts[pred] = set
		for _, t := range edb.Facts(pred) {
			if set.add(t.Clone()) {
				ev.total++
			}
		}
	}
	for _, p := range prog.BodyPredicates() {
		seed(p)
	}
	for _, p := range prog.HeadPredicates() {
		seed(p)
	}

	// Program facts.
	for _, r := range prog.Rules {
		if r.IsFact() {
			t := make(relation.Tuple, len(r.Head.Args))
			for i, a := range r.Head.Args {
				t[i] = a.(Const).Val
			}
			if ev.facts[r.Head.Pred].add(t) {
				ev.total++
			}
		}
	}

	for s := range analysis.Strata {
		if err := ev.runStratum(s); err != nil {
			return nil, err
		}
	}
	return &refResult{store: ev.facts}, nil
}

// runStratum evaluates one stratum: aggregate rules once (their bodies are
// strictly lower), then the remaining rules to a semi-naive fixpoint.
func (ev *refEvaluator) runStratum(s int) error {
	inStratum := map[string]bool{}
	for _, p := range ev.analysis.Strata[s] {
		inStratum[p] = true
	}
	var aggRules, rules []int
	for ri, r := range ev.prog.Rules {
		if r.IsFact() || !inStratum[r.Head.Pred] {
			continue
		}
		if r.HasAggregation() {
			aggRules = append(aggRules, ri)
		} else if len(r.Body) > 0 {
			rules = append(rules, ri)
		}
	}

	for _, ri := range aggRules {
		derived, err := ev.evalAggRule(ri)
		if err != nil {
			return err
		}
		for _, t := range derived {
			if ev.facts[ev.prog.Rules[ri].Head.Pred].add(t) {
				ev.total++
			}
		}
	}
	if err := ev.checkBudget(); err != nil {
		return err
	}
	if len(rules) == 0 {
		return nil
	}

	// Initial naive round over full relations.
	delta := map[string]*refTupleSet{}
	for _, p := range ev.analysis.Strata[s] {
		delta[p] = newRefTupleSet()
	}
	for _, ri := range rules {
		derived, err := ev.evalRule(ri, nil, nil)
		if err != nil {
			return err
		}
		ev.absorb(ri, derived, delta)
	}

	// Semi-naive rounds: recursive literals restricted to the delta.
	for iter := 0; ; iter++ {
		if iter > ev.eng.MaxIterations {
			return fmt.Errorf("vadalog: stratum %d exceeded %d iterations", s, ev.eng.MaxIterations)
		}
		if err := ev.checkBudget(); err != nil {
			return err
		}
		empty := true
		for _, d := range delta {
			if len(d.tuples) > 0 {
				empty = false
				break
			}
		}
		if empty {
			return nil
		}
		next := map[string]*refTupleSet{}
		for _, p := range ev.analysis.Strata[s] {
			next[p] = newRefTupleSet()
		}
		for _, ri := range rules {
			r := ev.prog.Rules[ri]
			// Positions of positive body literals over predicates in this
			// stratum (the recursive literals).
			var recPos []int
			for li, l := range r.Body {
				if l.Atom != nil && !l.Negated && inStratum[l.Atom.Pred] {
					recPos = append(recPos, li)
				}
			}
			if len(recPos) == 0 {
				continue // non-recursive: fully handled in the initial round
			}
			for _, li := range recPos {
				derived, err := ev.evalRule(ri, delta, &li)
				if err != nil {
					return err
				}
				ev.absorb(ri, derived, next)
			}
		}
		delta = next
	}
}

// absorb inserts derived tuples into the global store and the delta set.
func (ev *refEvaluator) absorb(ri int, derived []relation.Tuple, delta map[string]*refTupleSet) {
	pred := ev.prog.Rules[ri].Head.Pred
	for _, t := range derived {
		if ev.facts[pred].add(t) {
			ev.total++
			if d, ok := delta[pred]; ok {
				d.add(t)
			}
		}
	}
}

func (ev *refEvaluator) checkBudget() error {
	if ev.total > ev.eng.MaxFacts {
		return fmt.Errorf("vadalog: derived more than %d facts; aborting (MaxFacts)", ev.eng.MaxFacts)
	}
	return nil
}

// evalRule computes the head instantiations of rule ri. If deltaAt is
// non-nil, the body literal at *deltaAt reads from delta instead of the full
// store (semi-naive restriction).
func (ev *refEvaluator) evalRule(ri int, delta map[string]*refTupleSet, deltaAt *int) ([]relation.Tuple, error) {
	r := ev.prog.Rules[ri]
	order := ev.analysis.Order[ri]
	var out []relation.Tuple
	var walk func(step int, b Binding) error
	walk = func(step int, b Binding) error {
		if step == len(order) {
			t, ok, err := ev.instantiateHead(ri, b)
			if err != nil {
				return err
			}
			if ok {
				out = append(out, t)
			}
			return nil
		}
		li := order[step]
		l := r.Body[li]
		switch {
		case l.Cmp != nil:
			nb, ok, err := ev.evalComparison(l.Cmp, b)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return walk(step+1, nb)
		case l.Negated:
			match, err := ev.atomHasMatch(l.Atom, b)
			if err != nil {
				return err
			}
			if match {
				return nil
			}
			return walk(step+1, b)
		default:
			src := ev.facts[l.Atom.Pred]
			if deltaAt != nil && li == *deltaAt {
				src = delta[l.Atom.Pred]
			}
			if src == nil {
				return nil
			}
			for _, t := range src.tuples {
				nb, ok := refUnify(l.Atom, t, b)
				if !ok {
					continue
				}
				if err := walk(step+1, nb); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := walk(0, Binding{}); err != nil {
		return nil, err
	}
	return out, nil
}

// refUnify matches an atom against a tuple under binding b, returning the
// extended binding. Constants must equal the tuple values; bound variables
// must agree; unbound variables are bound.
func refUnify(a *Atom, t relation.Tuple, b Binding) (Binding, bool) {
	if len(a.Args) != len(t) {
		return nil, false
	}
	nb := b
	copied := false
	for i, arg := range a.Args {
		switch x := arg.(type) {
		case Const:
			if !x.Val.Equal(t[i]) {
				return nil, false
			}
		case Var:
			if v, ok := nb[x.Name]; ok {
				if !v.Equal(t[i]) {
					return nil, false
				}
				continue
			}
			if !copied {
				cp := make(Binding, len(nb)+1)
				for k, vv := range nb {
					cp[k] = vv
				}
				nb = cp
				copied = true
			}
			nb[x.Name] = t[i]
		default:
			return nil, false // Agg cannot occur in bodies
		}
	}
	return nb, true
}

// atomHasMatch reports whether any stored fact matches the (fully bound)
// atom.
func (ev *refEvaluator) atomHasMatch(a *Atom, b Binding) (bool, error) {
	src := ev.facts[a.Pred]
	if src == nil {
		return false, nil
	}
	// Fully ground atom: direct key lookup.
	ground := make(relation.Tuple, len(a.Args))
	allGround := true
	for i, arg := range a.Args {
		switch x := arg.(type) {
		case Const:
			ground[i] = x.Val
		case Var:
			v, ok := b[x.Name]
			if !ok {
				allGround = false
			} else {
				ground[i] = v
			}
		}
	}
	if allGround {
		return src.keys[ground.Key()], nil
	}
	for _, t := range src.tuples {
		if _, ok := refUnify(a, t, b); ok {
			return true, nil
		}
	}
	return false, nil
}

// evalComparison evaluates a comparison literal under b. For OpEq with a
// single unbound variable it binds that variable (assignment). ok=false
// means the literal failed (not an error).
func (ev *refEvaluator) evalComparison(c *Comparison, b Binding) (Binding, bool, error) {
	lv, lok := refEvalExpr(c.L, b)
	rv, rok := refEvalExpr(c.R, b)
	if c.Op == OpEq {
		if lok && !rok {
			if v, isVar := singleVar(c.R); isVar {
				nb := cloneBinding(b)
				nb[v] = lv
				return nb, true, nil
			}
		}
		if rok && !lok {
			if v, isVar := singleVar(c.L); isVar {
				nb := cloneBinding(b)
				nb[v] = rv
				return nb, true, nil
			}
		}
	}
	if !lok || !rok {
		// Analysis guarantees orderability, so an unevaluable side here
		// means an arithmetic failure (e.g. division by zero or non-numeric
		// operand): the literal simply fails.
		return b, false, nil
	}
	return b, satisfies(c.Op, lv, rv), nil
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// refEvalExpr evaluates an arithmetic expression; ok=false if any variable is
// unbound or an operation is inapplicable.
func refEvalExpr(e Expr, b Binding) (relation.Value, bool) {
	switch x := e.(type) {
	case TermExpr:
		switch t := x.T.(type) {
		case Const:
			return t.Val, true
		case Var:
			v, ok := b[t.Name]
			return v, ok
		default:
			return relation.Null(), false
		}
	case BinExpr:
		l, lok := refEvalExpr(x.L, b)
		r, rok := refEvalExpr(x.R, b)
		if !lok || !rok {
			return relation.Null(), false
		}
		return applyArith(x.Op, l, r)
	default:
		return relation.Null(), false
	}
}

// instantiateHead builds the head tuple for a binding, creating labelled
// nulls for existential variables via skolemisation: the same rule firing on
// the same frontier values reuses the same null. Firings whose frontier
// carries a null at MaxNullDepth are suppressed (bounded chase).
func (ev *refEvaluator) instantiateHead(ri int, b Binding) (relation.Tuple, bool, error) {
	r := ev.prog.Rules[ri]
	exVars := r.ExistentialVars()
	if len(exVars) == 0 {
		t := make(relation.Tuple, len(r.Head.Args))
		for i, arg := range r.Head.Args {
			switch x := arg.(type) {
			case Const:
				t[i] = x.Val
			case Var:
				v, ok := b[x.Name]
				if !ok {
					return nil, false, fmt.Errorf("vadalog: internal: head var %s unbound in rule %d", x.Name, ri)
				}
				t[i] = v
			default:
				return nil, false, fmt.Errorf("vadalog: internal: aggregate in non-aggregate rule %d", ri)
			}
		}
		return t, true, nil
	}

	// Existential rule: compute frontier key and depth.
	depth := 0
	var frontier strings.Builder
	frontier.WriteString(fmt.Sprintf("r%d|", ri))
	for _, arg := range r.Head.Args {
		if v, ok := arg.(Var); ok {
			if val, bound := b[v.Name]; bound {
				frontier.WriteString(val.Key())
				frontier.WriteByte('\x1f')
				if IsLabelledNull(val) {
					if d := ev.nullDepth[val.Str()]; d > depth {
						depth = d
					}
				}
			}
		}
	}
	if depth >= ev.eng.MaxNullDepth {
		return nil, false, nil // chase bound reached: suppress firing
	}
	fkey := frontier.String()

	nulls := map[string]relation.Value{}
	for i, x := range exVars {
		skey := fmt.Sprintf("%s#%d", fkey, i)
		nv, ok := ev.skolem[skey]
		if !ok {
			ev.nullSeq++
			name := fmt.Sprintf("%sn%d", NullPrefix, ev.nullSeq)
			nv = relation.String(name)
			ev.skolem[skey] = nv
			ev.nullDepth[name] = depth + 1
		}
		nulls[x] = nv
	}

	t := make(relation.Tuple, len(r.Head.Args))
	for i, arg := range r.Head.Args {
		switch x := arg.(type) {
		case Const:
			t[i] = x.Val
		case Var:
			if v, ok := b[x.Name]; ok {
				t[i] = v
			} else {
				t[i] = nulls[x.Name]
			}
		}
	}
	return t, true, nil
}

// evalAggRule evaluates an aggregate rule: body bindings are grouped by the
// non-aggregate head terms and the aggregate is computed per group over the
// deduplicated bindings of the body variables.
func (ev *refEvaluator) evalAggRule(ri int) ([]relation.Tuple, error) {
	r := ev.prog.Rules[ri]
	order := ev.analysis.Order[ri]

	// Collect body variable names in deterministic order for dedup keys.
	bodyVarSet := r.bodyVars()
	bodyVars := make([]string, 0, len(bodyVarSet))
	for v := range bodyVarSet {
		bodyVars = append(bodyVars, v)
	}
	sort.Strings(bodyVars)

	type group struct {
		key  relation.Tuple // values of group-by head terms
		vals []relation.Value
	}
	groups := map[string]*group{}
	var orderKeys []string
	seen := map[string]bool{}

	var aggVar string
	var aggFn AggFn
	for _, arg := range r.Head.Args {
		if a, ok := arg.(Agg); ok {
			aggVar, aggFn = a.Arg.Name, a.Fn
		}
	}

	var walk func(step int, b Binding) error
	walk = func(step int, b Binding) error {
		if step < len(order) {
			li := order[step]
			l := r.Body[li]
			switch {
			case l.Cmp != nil:
				nb, ok, err := ev.evalComparison(l.Cmp, b)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
				return walk(step+1, nb)
			case l.Negated:
				match, err := ev.atomHasMatch(l.Atom, b)
				if err != nil {
					return err
				}
				if match {
					return nil
				}
				return walk(step+1, b)
			default:
				src := ev.facts[l.Atom.Pred]
				if src == nil {
					return nil
				}
				for _, t := range src.tuples {
					nb, ok := refUnify(l.Atom, t, b)
					if !ok {
						continue
					}
					if err := walk(step+1, nb); err != nil {
						return err
					}
				}
				return nil
			}
		}
		// Dedup on the full body binding (set semantics).
		var dk strings.Builder
		for _, v := range bodyVars {
			dk.WriteString(b[v].Key())
			dk.WriteByte('\x1f')
		}
		if seen[dk.String()] {
			return nil
		}
		seen[dk.String()] = true

		gkey := make(relation.Tuple, 0, len(r.Head.Args))
		for _, arg := range r.Head.Args {
			switch x := arg.(type) {
			case Const:
				gkey = append(gkey, x.Val)
			case Var:
				gkey = append(gkey, b[x.Name])
			}
		}
		k := gkey.Key()
		g, ok := groups[k]
		if !ok {
			g = &group{key: gkey}
			groups[k] = g
			orderKeys = append(orderKeys, k)
		}
		g.vals = append(g.vals, b[aggVar])
		return nil
	}
	if err := walk(0, Binding{}); err != nil {
		return nil, err
	}

	var out []relation.Tuple
	for _, k := range orderKeys {
		g := groups[k]
		av := aggregate(aggFn, g.vals)
		// g.key holds only the non-aggregate head values, in head order.
		t := make(relation.Tuple, 0, len(r.Head.Args))
		gi := 0
		for _, arg := range r.Head.Args {
			if _, isAgg := arg.(Agg); isAgg {
				t = append(t, av)
				continue
			}
			t = append(t, g.key[gi])
			gi++
		}
		out = append(out, t)
	}
	return out, nil
}

// QueryResult returns the bindings of q's variables over an already-computed
// Result. Bindings are deduplicated and returned in derivation order.
func (r *refResult) QueryResult(q *Query) ([]Binding, error) {
	rule := Rule{Head: Atom{Pred: "__query__"}, Body: q.Body}
	order, err := orderBody(rule)
	if err != nil {
		return nil, fmt.Errorf("vadalog: query %s: %w", q.String(), err)
	}
	ev := &refEvaluator{
		eng:       NewEngine(),
		facts:     r.store,
		nullDepth: map[string]int{},
		skolem:    map[string]relation.Value{},
	}

	var out []Binding
	seen := map[string]bool{}
	var walk func(step int, b Binding) error
	walk = func(step int, b Binding) error {
		if step == len(order) {
			ans := make(Binding, len(q.Vars))
			var key strings.Builder
			for _, v := range q.Vars {
				val, ok := b[v]
				if !ok {
					val = relation.Null()
				}
				ans[v] = val
				key.WriteString(val.Key())
				key.WriteByte('\x1f')
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				out = append(out, ans)
			}
			return nil
		}
		li := order[step]
		l := q.Body[li]
		switch {
		case l.Cmp != nil:
			nb, ok, err := ev.evalComparison(l.Cmp, b)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return walk(step+1, nb)
		case l.Negated:
			match, err := ev.atomHasMatch(l.Atom, b)
			if err != nil {
				return err
			}
			if match {
				return nil
			}
			return walk(step+1, b)
		default:
			src := ev.facts[l.Atom.Pred]
			if src == nil {
				return nil
			}
			for _, t := range src.tuples {
				nb, ok := refUnify(l.Atom, t, b)
				if !ok {
					continue
				}
				if err := walk(step+1, nb); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := walk(0, Binding{}); err != nil {
		return nil, err
	}
	return out, nil
}

// refQuery runs program rules over the EDB and then evaluates the query against
// the combined result. An empty program string may be passed when the query
// only references EDB predicates.
func (e *Engine) refQuery(programSrc, querySrc string, edb EDB) ([]Binding, error) {
	prog, err := Parse(programSrc)
	if err != nil {
		return nil, err
	}
	q, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	res, err := e.refRun(prog, edb)
	if err != nil {
		return nil, err
	}
	// Make sure query-only EDB predicates are loaded too.
	for _, l := range q.Body {
		if l.Atom != nil {
			if _, ok := res.store[l.Atom.Pred]; !ok {
				set := newRefTupleSet()
				for _, t := range edb.Facts(l.Atom.Pred) {
					set.add(t.Clone())
				}
				res.store[l.Atom.Pred] = set
			}
		}
	}
	return res.QueryResult(q)
}

// refAsk reports whether the query has at least one answer over the EDB after
// applying the program. It is the primitive used for transducer input
// dependencies: "the dependency holds" means "the query is non-empty".
func (e *Engine) refAsk(programSrc, querySrc string, edb EDB) (bool, error) {
	bindings, err := e.refQuery(programSrc, querySrc, edb)
	if err != nil {
		return false, err
	}
	return len(bindings) > 0, nil
}

package vadalog

import (
	"fmt"
	"sort"
	"strings"

	"vada/internal/relation"
)

// EDB supplies extensional facts to the evaluator. *kb.KB satisfies EDB
// directly, as does MapEDB.
type EDB interface {
	// Facts returns the tuples of the named predicate.
	Facts(pred string) []relation.Tuple
}

// MapEDB is an in-memory EDB backed by a map.
type MapEDB map[string][]relation.Tuple

// Facts implements EDB.
func (m MapEDB) Facts(pred string) []relation.Tuple { return m[pred] }

// NullPrefix marks labelled nulls produced for Datalog± existentials. A
// labelled null is represented as a string value "⊥<id>"; IsLabelledNull
// recognises them.
const NullPrefix = "⊥"

// IsLabelledNull reports whether a value is a labelled null created by the
// chase.
func IsLabelledNull(v relation.Value) bool {
	return v.Kind() == relation.KindString && strings.HasPrefix(v.Str(), NullPrefix)
}

// Engine evaluates Vadalog programs. The zero value is not ready; use
// NewEngine.
type Engine struct {
	// MaxNullDepth bounds the restricted chase: a rule firing whose frontier
	// carries a labelled null of this depth will not create deeper nulls.
	// This guarantees termination for arbitrary existential programs at the
	// cost of completeness beyond the bound: the architecture uses
	// existentials to invent identifiers, never to reason through chains of
	// them, so a shallow bound loses nothing it relies on.
	MaxNullDepth int
	// MaxIterations bounds semi-naive rounds per stratum as a runaway guard.
	MaxIterations int
	// MaxFacts bounds the total number of derived facts as a runaway guard.
	MaxFacts int
}

// NewEngine returns an Engine with production defaults.
func NewEngine() *Engine {
	return &Engine{MaxNullDepth: 3, MaxIterations: 10_000, MaxFacts: 5_000_000}
}

// Result holds the facts derived by a program run (IDB ∪ referenced EDB).
// Facts the run read from the EDB are the EDB's own tuples, not copies, and
// QueryResult builds indexes on the Result as it needs them: treat the facts
// as read-only and do not share a Result between goroutines.
type Result struct {
	store map[string]*tupleSet
}

// Facts returns the tuples derived for pred (shared slices; treat as
// read-only).
func (r *Result) Facts(pred string) []relation.Tuple {
	s, ok := r.store[pred]
	if !ok {
		return nil
	}
	return s.tuples
}

// Count returns the number of facts for pred.
func (r *Result) Count(pred string) int { return len(r.Facts(pred)) }

// Has reports whether the exact fact was derived.
func (r *Result) Has(pred string, t relation.Tuple) bool {
	s, ok := r.store[pred]
	return ok && s.has(t)
}

// Predicates lists predicates with at least one fact, sorted.
func (r *Result) Predicates() []string {
	var out []string
	for p, s := range r.store {
		if len(s.tuples) > 0 {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Binding maps query variable names to values.
type Binding map[string]relation.Value

// evaluator carries the mutable state of one Run.
type evaluator struct {
	eng       *Engine
	prog      *Program
	analysis  *Analysis
	facts     map[string]*tupleSet
	rules     []*rulePlan    // by rule index; nil for facts and bodiless rules
	nullDepth map[string]int // labelled null name -> depth
	nullSeq   int
	total     int
}

// rulePlan is a rule compiled for one Run: the plan of its body, where each
// head argument comes from, and the facts of its head predicate.
type rulePlan struct {
	*plan
	head   []headArg
	into   *tupleSet
	nExist int              // distinct existential head variables
	rec    []int            // body literals over the head's own stratum, for semi-naive rounds
	out    []relation.Tuple // evalRule's buffer, reused from round to round
	aggFn  AggFn
	aggArg int // slot of the aggregated variable

	// The skolem table of an existential rule: the frontiers it fired on
	// (the values of its head's body variables; Tuple.Same is one frontier),
	// nulls[f] the labelled nulls frontiers.tuples[f] got, and frontier
	// instantiateHead's buffer.
	frontiers tupleSet
	nulls     [][]relation.Value
	frontier  relation.Tuple
}

type headSrc uint8

const (
	headConst headSrc = iota
	headSlot          // a body variable: n is its slot
	headExist         // an existential variable: n numbers it within the rule
	headAgg
)

type headArg struct {
	src headSrc
	val relation.Value
	n   int
}

// Run evaluates the program against the EDB and returns all facts.
func (e *Engine) Run(prog *Program, edb EDB) (*Result, error) {
	analysis, err := Analyze(prog)
	if err != nil {
		return nil, err
	}
	ev := &evaluator{
		eng:       e,
		prog:      prog,
		analysis:  analysis,
		facts:     map[string]*tupleSet{},
		rules:     make([]*rulePlan, len(prog.Rules)),
		nullDepth: map[string]int{},
	}

	// Seed every referenced predicate from the EDB, dropping duplicates. The
	// tuples themselves are shared with the EDB, never copied or changed.
	for _, preds := range [][]string{prog.BodyPredicates(), prog.HeadPredicates()} {
		for _, p := range preds {
			if ev.facts[p] != nil {
				continue
			}
			src := edb.Facts(p)
			set := &tupleSet{tuples: make([]relation.Tuple, 0, len(src))}
			ev.facts[p] = set
			for _, t := range src {
				if set.add(t) {
					ev.total++
				}
			}
		}
	}

	for ri, r := range prog.Rules {
		switch {
		case r.IsFact():
			t := make(relation.Tuple, len(r.Head.Args))
			for i, a := range r.Head.Args {
				t[i] = a.(Const).Val
			}
			if ev.facts[r.Head.Pred].add(t) {
				ev.total++
			}
		case len(r.Body) > 0:
			ev.rules[ri] = ev.compileRule(ri)
		}
	}

	for s := range analysis.Strata {
		if err := ev.runStratum(s); err != nil {
			return nil, err
		}
	}
	return &Result{store: ev.facts}, nil
}

func (ev *evaluator) compileRule(ri int) *rulePlan {
	r := ev.prog.Rules[ri]
	rp := &rulePlan{
		plan: compileBody(r.Body, ev.analysis.Order[ri], ev.facts),
		into: ev.facts[r.Head.Pred],
	}
	exist := map[string]int{}
	for _, t := range r.Head.Args {
		switch x := t.(type) {
		case Const:
			rp.head = append(rp.head, headArg{src: headConst, val: x.Val})
		case Var:
			if slot, ok := rp.slotOf[x.Name]; ok {
				rp.head = append(rp.head, headArg{src: headSlot, n: slot})
				continue
			}
			n, ok := exist[x.Name]
			if !ok {
				n = len(exist)
				exist[x.Name] = n
			}
			rp.head = append(rp.head, headArg{src: headExist, n: n})
		case Agg:
			rp.head = append(rp.head, headArg{src: headAgg})
			rp.aggFn, rp.aggArg = x.Fn, rp.slotOf[x.Arg.Name]
		}
	}
	rp.nExist = len(exist)
	own := ev.analysis.StratumOf[r.Head.Pred]
	for li, l := range r.Body {
		if l.Atom == nil || l.Negated {
			continue
		}
		if s, derived := ev.analysis.StratumOf[l.Atom.Pred]; derived && s == own {
			rp.rec = append(rp.rec, li)
		}
	}
	return rp
}

// runStratum evaluates one stratum: aggregate rules once (their bodies are
// strictly lower), then the remaining rules to a semi-naive fixpoint.
func (ev *evaluator) runStratum(s int) error {
	var rules []int
	for ri, rp := range ev.rules {
		if rp == nil || ev.analysis.StratumOf[ev.prog.Rules[ri].Head.Pred] != s {
			continue
		}
		if !ev.prog.Rules[ri].HasAggregation() {
			rules = append(rules, ri)
			continue
		}
		for _, t := range evalAggRule(rp) {
			if rp.into.add(t) {
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

	// A delta holds only facts that were new to the store, so it needs no
	// duplicate check of its own.
	newDelta := func() map[string]*tupleSet {
		d := map[string]*tupleSet{}
		for _, p := range ev.analysis.Strata[s] {
			d[p] = &tupleSet{}
		}
		return d
	}

	// Initial naive round over full relations.
	delta := newDelta()
	for _, ri := range rules {
		ev.absorb(ri, ev.evalRule(ri, -1, nil), delta)
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
		next := newDelta()
		for _, ri := range rules {
			// Non-recursive rules were fully handled in the initial round.
			for _, li := range ev.rules[ri].rec {
				pred := ev.prog.Rules[ri].Body[li].Atom.Pred
				ev.absorb(ri, ev.evalRule(ri, li, delta[pred]), next)
			}
		}
		delta = next
	}
}

// absorb inserts derived tuples into the global store and the delta set.
func (ev *evaluator) absorb(ri int, derived []relation.Tuple, delta map[string]*tupleSet) {
	into, d := ev.rules[ri].into, delta[ev.prog.Rules[ri].Head.Pred]
	for _, t := range derived {
		h := t.Hash()
		if into.find(t, h) < 0 {
			into.insert(t, h)
			d.insert(t, h)
			ev.total++
		}
	}
}

func (ev *evaluator) checkBudget() error {
	if ev.total > ev.eng.MaxFacts {
		return fmt.Errorf("vadalog: derived more than %d facts; aborting (MaxFacts)", ev.eng.MaxFacts)
	}
	return nil
}

// evalRule computes the head instantiations of rule ri. With deltaLit >= 0
// that body literal reads from delta instead of the full store (semi-naive
// restriction). The slice returned is the rule's own buffer, valid until its
// next evaluation.
func (ev *evaluator) evalRule(ri, deltaLit int, delta *tupleSet) []relation.Tuple {
	rp := ev.rules[ri]
	rp.out = rp.out[:0]
	rp.run(deltaLit, delta, func(frame []relation.Value) bool {
		if t, ok := ev.instantiateHead(ri, frame); ok {
			rp.out = append(rp.out, t)
		}
		return true
	})
	return rp.out
}

// satisfies applies a comparison operator to two values. Order comparisons
// involving null are false; equality uses Value.Equal.
func satisfies(op CmpOp, l, r relation.Value) bool {
	switch op {
	case OpEq:
		return l.Equal(r)
	case OpNe:
		return !l.Equal(r)
	}
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := l.Compare(r)
	switch op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

func applyArith(op ArithOp, l, r relation.Value) (relation.Value, bool) {
	// String concatenation with '+'.
	if op == OpAdd && l.Kind() == relation.KindString && r.Kind() == relation.KindString {
		return relation.String(l.Str() + r.Str()), true
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return relation.Null(), false
	}
	bothInt := l.Kind() == relation.KindInt && r.Kind() == relation.KindInt
	switch op {
	case OpAdd:
		if bothInt {
			return relation.Int(l.IntVal() + r.IntVal()), true
		}
		return relation.Float(lf + rf), true
	case OpSub:
		if bothInt {
			return relation.Int(l.IntVal() - r.IntVal()), true
		}
		return relation.Float(lf - rf), true
	case OpMul:
		if bothInt {
			return relation.Int(l.IntVal() * r.IntVal()), true
		}
		return relation.Float(lf * rf), true
	case OpDiv:
		if rf == 0 {
			return relation.Null(), false
		}
		return relation.Float(lf / rf), true
	default:
		return relation.Null(), false
	}
}

// instantiateHead builds the head tuple of rule ri for a frame, creating
// labelled nulls for existential variables via skolemisation: the same rule
// firing on the same frontier values reuses the same null. Firings whose
// frontier carries a null at MaxNullDepth are suppressed (bounded chase).
func (ev *evaluator) instantiateHead(ri int, frame []relation.Value) (relation.Tuple, bool) {
	rp := ev.rules[ri]
	var nulls []relation.Value
	if rp.nExist > 0 {
		// Existential rule: find the frontier and its depth.
		depth := 0
		rp.frontier = rp.frontier[:0]
		for _, a := range rp.head {
			if a.src != headSlot {
				continue
			}
			val := frame[a.n]
			rp.frontier = append(rp.frontier, val)
			if IsLabelledNull(val) {
				if d := ev.nullDepth[val.Str()]; d > depth {
					depth = d
				}
			}
		}
		if depth >= ev.eng.MaxNullDepth {
			return nil, false // chase bound reached: suppress firing
		}
		h := rp.frontier.Hash()
		if f := rp.frontiers.find(rp.frontier, h); f >= 0 {
			nulls = rp.nulls[f]
		} else {
			nulls = make([]relation.Value, rp.nExist)
			for i := range nulls {
				ev.nullSeq++
				name := fmt.Sprintf("%sn%d", NullPrefix, ev.nullSeq)
				nulls[i] = relation.String(name)
				ev.nullDepth[name] = depth + 1
			}
			rp.frontiers.insert(rp.frontier.Clone(), h)
			rp.nulls = append(rp.nulls, nulls)
		}
	}
	t := make(relation.Tuple, len(rp.head))
	for i, a := range rp.head {
		switch a.src {
		case headConst:
			t[i] = a.val
		case headSlot:
			t[i] = frame[a.n]
		case headExist:
			t[i] = nulls[a.n]
		}
	}
	return t, true
}

// evalAggRule evaluates an aggregate rule: body bindings are grouped by the
// non-aggregate head terms and the aggregate is computed per group over the
// deduplicated bindings of the body variables.
func evalAggRule(rp *rulePlan) []relation.Tuple {
	var seen, groups tupleSet
	var vals [][]relation.Value // by group, in groups' order
	key := make(relation.Tuple, 0, len(rp.head))
	rp.run(-1, nil, func(frame []relation.Value) bool {
		// Dedup on the full body binding (set semantics): the frame is
		// exactly the body's variables.
		h := relation.Tuple(frame).Hash()
		if seen.find(frame, h) >= 0 {
			return true
		}
		seen.insert(relation.Tuple(frame).Clone(), h)

		key = key[:0]
		for _, a := range rp.head {
			switch a.src {
			case headConst:
				key = append(key, a.val)
			case headSlot:
				key = append(key, frame[a.n])
			}
		}
		h = key.Hash()
		g := groups.find(key, h)
		if g < 0 {
			g = len(vals)
			groups.insert(key.Clone(), h)
			vals = append(vals, nil)
		}
		vals[g] = append(vals[g], frame[rp.aggArg])
		return true
	})

	out := make([]relation.Tuple, len(vals))
	for g, key := range groups.tuples {
		// key holds only the non-aggregate head values, in head order.
		t := make(relation.Tuple, 0, len(rp.head))
		ki := 0
		for _, a := range rp.head {
			if a.src == headAgg {
				t = append(t, aggregate(rp.aggFn, vals[g]))
				continue
			}
			t = append(t, key[ki])
			ki++
		}
		out[g] = t
	}
	return out
}

// aggregate applies fn to the collected values. Nulls are skipped for
// sum/min/max/avg; count counts all bindings. A sum of ints is added in int64,
// exact past 2^53; only when that overflows is it the float sum.
func aggregate(fn AggFn, vals []relation.Value) relation.Value {
	switch fn {
	case AggCount:
		return relation.Int(int64(len(vals)))
	case AggSum, AggAvg:
		sum, n := 0.0, 0
		var isum int64
		allInt, overflow := true, false
		for _, v := range vals {
			if f, ok := v.AsFloat(); ok {
				sum += f
				n++
				if v.Kind() != relation.KindInt {
					allInt = false
				} else if i := v.IntVal(); !overflow {
					overflow = (isum+i < isum) != (i < 0)
					isum += i
				}
			}
		}
		if n == 0 {
			return relation.Null()
		}
		if fn == AggAvg {
			return relation.Float(sum / float64(n))
		}
		if allInt && !overflow {
			return relation.Int(isum)
		}
		if allInt {
			return relation.Int(int64(sum))
		}
		return relation.Float(sum)
	case AggMin, AggMax:
		var best relation.Value
		first := true
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			if first {
				best, first = v, false
				continue
			}
			c := v.Compare(best)
			if (fn == AggMin && c < 0) || (fn == AggMax && c > 0) {
				best = v
			}
		}
		if first {
			return relation.Null()
		}
		return best
	default:
		return relation.Null()
	}
}

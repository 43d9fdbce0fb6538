package vadalog

import (
	"fmt"

	"vada/internal/relation"
)

// QueryResult returns the bindings of q's variables over an already-computed
// Result. Bindings are deduplicated and returned in derivation order.
func (r *Result) QueryResult(q *Query) ([]Binding, error) { return r.answers(q, 0) }

// answers evaluates q over the Result and stops once limit distinct answers
// are found (0: all of them).
func (r *Result) answers(q *Query, limit int) ([]Binding, error) {
	order, err := orderBody(Rule{Head: Atom{Pred: "__query__"}, Body: q.Body})
	if err != nil {
		return nil, fmt.Errorf("vadalog: query %s: %w", q.String(), err)
	}
	p := compileBody(q.Body, order, r.store)
	slots := make([]int, len(q.Vars))
	for i, v := range q.Vars {
		slot, ok := p.slotOf[v]
		if !ok {
			slot = -1 // a variable the body does not mention: null
		}
		slots[i] = slot
	}
	var seen tupleSet
	ans := make(relation.Tuple, len(q.Vars))
	p.run(-1, nil, func(frame []relation.Value) bool {
		for i, slot := range slots {
			ans[i] = relation.Null()
			if slot >= 0 {
				ans[i] = frame[slot]
			}
		}
		if h := ans.Hash(); seen.find(ans, h) < 0 {
			seen.insert(ans.Clone(), h)
		}
		return len(seen.tuples) != limit
	})
	var out []Binding
	for _, t := range seen.tuples {
		b := make(Binding, len(q.Vars))
		for i, v := range q.Vars {
			b[v] = t[i]
		}
		out = append(out, b)
	}
	return out, nil
}

// Query runs program rules over the EDB and then evaluates the query against
// the combined result. An empty program string may be passed when the query
// only references EDB predicates.
func (e *Engine) Query(programSrc, querySrc string, edb EDB) ([]Binding, error) {
	return e.query(programSrc, querySrc, edb, 0)
}

func (e *Engine) query(programSrc, querySrc string, edb EDB, limit int) ([]Binding, error) {
	prog, err := Parse(programSrc)
	if err != nil {
		return nil, err
	}
	q, err := ParseQuery(querySrc)
	if err != nil {
		return nil, err
	}
	res, err := e.Run(prog, edb)
	if err != nil {
		return nil, err
	}
	// Predicates only the query reads come straight from the EDB: they are
	// not part of any Result a caller sees, and duplicate facts cannot add
	// answers.
	for _, l := range q.Body {
		if l.Atom != nil {
			if _, ok := res.store[l.Atom.Pred]; !ok {
				src := edb.Facts(l.Atom.Pred)
				res.store[l.Atom.Pred] = &tupleSet{tuples: src[:len(src):len(src)]}
			}
		}
	}
	return res.answers(q, limit)
}

// Ask reports whether the query has at least one answer over the EDB after
// applying the program; it stops evaluating at the first. It is the primitive
// used for transducer input dependencies: "the dependency holds" means "the
// query is non-empty".
func (e *Engine) Ask(programSrc, querySrc string, edb EDB) (bool, error) {
	bindings, err := e.query(programSrc, querySrc, edb, 1)
	return len(bindings) > 0, err
}

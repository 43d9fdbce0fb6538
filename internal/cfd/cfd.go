// Package cfd implements conditional functional dependencies: the data-
// quality formalism the paper's CFD Learning transducer produces from
// data-context instances (Table 1 row 5, §2.3) and that the quality and
// repair transducers consume.
//
// A CFD (X → A, tp) embeds an FD X → A with a pattern tuple tp over X∪{A}
// whose cells are constants or the wildcard '_'. Two classes are supported,
// following CTANE:
//
//   - variable CFDs: all-wildcard patterns — ordinary FDs holding with high
//     confidence on the mining data;
//   - constant CFDs: constant LHS pattern and constant RHS — association-
//     style rules ("postcode M1 1AA ⇒ city Manchester").
package cfd

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"vada/internal/relation"
)

// PatternCell is one cell of a CFD pattern: a wildcard or a constant.
type PatternCell struct {
	// Any marks the wildcard '_'.
	Any bool
	// Value is the constant when Any is false.
	Value relation.Value
}

// String renders the cell.
func (p PatternCell) String() string {
	if p.Any {
		return "_"
	}
	return p.Value.String()
}

// CFD is a conditional functional dependency.
type CFD struct {
	// LHS is the determining attribute set, sorted.
	LHS []string
	// RHS is the determined attribute.
	RHS string
	// Pattern maps each attribute of LHS∪{RHS} to its pattern cell.
	Pattern map[string]PatternCell
	// Support is the fraction of mining tuples matching the LHS pattern
	// with no nulls in LHS∪{RHS}.
	Support float64
	// Confidence is the fraction of matching tuples consistent with the
	// dependency (1.0 means exact).
	Confidence float64
}

// IsConstant reports whether the CFD is a constant CFD (every pattern cell
// constant).
func (c CFD) IsConstant() bool {
	for _, cell := range c.Pattern {
		if cell.Any {
			return false
		}
	}
	return true
}

// String renders the CFD in the customary notation.
func (c CFD) String() string {
	lhsCells := make([]string, len(c.LHS))
	for i, a := range c.LHS {
		lhsCells[i] = c.Pattern[a].String()
	}
	return fmt.Sprintf("(%s -> %s, (%s || %s)) [supp=%.2f conf=%.2f]",
		strings.Join(c.LHS, ","), c.RHS,
		strings.Join(lhsCells, ","), c.Pattern[c.RHS].String(),
		c.Support, c.Confidence)
}

// Key identifies the dependency shape (for dedup across mining runs).
func (c CFD) Key() string {
	cells := make([]string, 0, len(c.LHS)+1)
	for _, a := range c.LHS {
		cells = append(cells, a+"="+c.Pattern[a].String())
	}
	cells = append(cells, c.RHS+"="+c.Pattern[c.RHS].String())
	return strings.Join(cells, "|")
}

// Mining's bounds, tuned for reference tables of a few thousand rows.
const (
	// maxLHS bounds the size of left-hand sides (levelwise search depth).
	maxLHS = 2
	// minSupport is the minimal fraction of usable tuples an FD must cover.
	minSupport = 0.5
	// minConfidence is the minimal confidence for variable CFDs.
	minConfidence = 0.98
	// minConstantSupport is the minimal absolute tuple count for a constant
	// CFD's LHS pattern.
	minConstantSupport = 3
	// maxConstantCFDs caps emitted constant CFDs (most-supported first).
	maxConstantCFDs = 200
)

// mineBounds are mining's bounds as values: Mine passes the constants, and
// the package's tests vary them.
type mineBounds struct {
	maxLHS                              int
	minSupport, minConfidence           float64
	minConstantSupport, maxConstantCFDs int
}

// Mine learns CFDs from clean (reference/master) data, levelwise over LHS
// size. Variable CFDs are pruned: once X → A holds exactly, supersets of X
// for A are skipped (they are implied). The relation is encoded once and every
// LHS set partitioned once, for all the RHS it is tried with.
func Mine(rel *relation.Relation) []CFD {
	return mine(rel, mineBounds{maxLHS, minSupport, minConfidence, minConstantSupport, maxConstantCFDs})
}

// mine is Mine within the bounds b.
func mine(rel *relation.Relation, b mineBounds) []CFD {
	attrs := rel.Schema.AttrNames()
	enc := encode(rel)
	var out []CFD
	exact := map[string]bool{} // "A" -> some X→A with conf 1 already found at lower level

	var lhsSets [][]int
	var build func(start int, cur []int)
	build = func(start int, cur []int) {
		if len(cur) > 0 && len(cur) <= b.maxLHS {
			lhsSets = append(lhsSets, append([]int(nil), cur...))
		}
		if len(cur) == b.maxLHS {
			return
		}
		for i := start; i < len(attrs); i++ {
			build(i+1, append(cur, i))
		}
	}
	build(0, nil)
	// Levelwise order: smaller LHS first.
	sort.SliceStable(lhsSets, func(i, j int) bool { return len(lhsSets[i]) < len(lhsSets[j]) })

	var constants []CFD
	for _, li := range lhsSets {
		lhs := make([]string, len(li))
		for i, idx := range li {
			lhs[i] = attrs[idx]
		}
		var groups []int32 // the partition by lhs, made for the first RHS that needs it
		nGroups := 0
		for ri, rhs := range attrs {
			if slices.Contains(li, ri) {
				continue
			}
			// Prune: an exact smaller FD for rhs whose LHS ⊆ lhs implies this.
			if prunedBy(exact, lhs, rhs) {
				continue
			}
			if groups == nil {
				groups, nGroups = enc.groups(li)
			}
			stats := enc.partitionStats(groups, nGroups, ri)
			if stats.usable == 0 {
				continue
			}
			support := float64(stats.usable) / float64(rel.Cardinality())
			confidence := float64(stats.consistent) / float64(stats.usable)
			if support >= b.minSupport && confidence >= b.minConfidence {
				pattern := map[string]PatternCell{rhs: {Any: true}}
				for _, a := range lhs {
					pattern[a] = PatternCell{Any: true}
				}
				out = append(out, CFD{
					LHS: append([]string(nil), lhs...), RHS: rhs,
					Pattern: pattern, Support: support, Confidence: confidence,
				})
				if confidence == 1 {
					exact[fdKey(lhs, rhs)] = true
				}
			}
			// Constant CFDs from pure groups.
			for _, g := range stats.pureGroups {
				if g.count < b.minConstantSupport {
					continue
				}
				pattern := map[string]PatternCell{rhs: {Value: rel.Tuples[g.last][ri]}}
				for i, a := range lhs {
					pattern[a] = PatternCell{Value: rel.Tuples[g.first][li[i]]}
				}
				constants = append(constants, CFD{
					LHS: append([]string(nil), lhs...), RHS: rhs,
					Pattern:    pattern,
					Support:    float64(g.count) / float64(rel.Cardinality()),
					Confidence: 1,
				})
			}
		}
	}

	sort.SliceStable(constants, func(i, j int) bool {
		if constants[i].Support != constants[j].Support {
			return constants[i].Support > constants[j].Support
		}
		return constants[i].Key() < constants[j].Key()
	})
	if len(constants) > b.maxConstantCFDs {
		constants = constants[:b.maxConstantCFDs]
	}
	out = append(out, constants...)
	return out
}

func fdKey(lhs []string, rhs string) string {
	s := append([]string(nil), lhs...)
	sort.Strings(s)
	return strings.Join(s, ",") + "->" + rhs
}

// prunedBy reports whether some exact FD Y→rhs with Y ⊂ lhs exists.
func prunedBy(exact map[string]bool, lhs []string, rhs string) bool {
	if len(lhs) < 2 {
		return false
	}
	for skip := range lhs {
		sub := make([]string, 0, len(lhs)-1)
		for i, a := range lhs {
			if i != skip {
				sub = append(sub, a)
			}
		}
		if exact[fdKey(sub, rhs)] {
			return true
		}
	}
	return false
}

// pureGroup is a group of usable rows that agree on the RHS: first and last
// are its first and last rows, which carry its LHS values and its RHS value.
type pureGroup struct {
	first, last, count int
}

type stats struct {
	usable     int // tuples with no nulls in LHS∪{RHS}
	consistent int // tuples in their group's majority RHS value
	pureGroups []pureGroup
}

// partitionStats measures how well the partition groups (of nGroups groups, −1
// for a row with a null in the LHS) determines attribute ri. Pure groups come
// in the order of their first usable row.
func (e *encoded) partitionStats(groups []int32, nGroups, ri int) stats {
	rhs, _ := e.column(ri)
	type tally struct{ total, best, values, first, last int }
	byGroup := make([]tally, nGroups)
	counts := map[uint64]int{} // (group, RHS code) → rows
	var order []int32
	st := stats{}
	for row, g := range groups {
		if g < 0 || rhs[row] < 0 {
			continue
		}
		st.usable++
		t := &byGroup[g]
		if t.total == 0 {
			t.first = row
			order = append(order, g)
		}
		t.total++
		t.last = row
		counts[uint64(g)<<32|uint64(rhs[row])]++
	}
	for key, c := range counts {
		t := &byGroup[key>>32]
		t.values++
		t.best = max(t.best, c)
	}
	for _, g := range order {
		t := byGroup[g]
		st.consistent += t.best
		if t.values == 1 {
			st.pureGroups = append(st.pureGroups, pureGroup{first: t.first, last: t.last, count: t.total})
		}
	}
	return st
}

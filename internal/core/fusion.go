package core

import (
	"maps"
	"slices"

	"vada/internal/datagen"
	"vada/internal/feedback"
	"vada/internal/fusion"
	"vada/internal/mapping"
	"vada/internal/relation"
)

// fusionInput is everything duplicate fusion computes the result from.
type fusionInput struct {
	results []*relation.Relation // the selected results, in selection-rank order
	items   []feedback.Item
	rules   []feedback.RangeRule
	trust   map[string]float64 // by source; without any, fusion votes
	name    string             // the result's relation name
}

// fusionResult is the fused result and what the trace says of it.
type fusionResult struct {
	result                                   *relation.Relation
	union, clusters, corrections, suppressed int
}

// fusionMemo is what duplicate fusion remembers of its last run. It holds while
// the selected results are the same relations in the same rank order: their
// union, its rows by feedback key (once a correction needed them), and of the
// rows the last run patched each one's block and cluster, each cluster with
// its fused row. A run patches the union anew through the key index,
// re-clusters only the blocks that hold a row whose block or identity cell
// moved, and re-fuses only the clusters whose rows moved — every cluster when
// the trust moved. The union order stays what it was, because
// voting tie-breaks follow it. A memo is never written to once stored: a run
// builds the next, sharing what did not move.
type fusionMemo struct {
	results []*relation.Relation
	union   *relation.Relation
	keys    *feedback.Keys
	rows    []relation.Tuple // patched, in union order
	blocks  []string         // each row's block; "" for none
	of      []*cluster       // each row's cluster; nil for none
	trust   map[string]float64
	result  *relation.Relation
	count   int // clusters
}

// cluster is a set of duplicate rows, ascending, and the row they fuse into;
// fused is nil until the run that made the cluster fuses it.
type cluster struct {
	rows  []int
	fused relation.Tuple
}

// fuse fuses in as the run last remembered computes it — last is nil when
// nothing is remembered — and returns what to remember next. With no result
// selected there is nothing to fuse: the result is nil and last stays.
func (last *fusionMemo) fuse(in fusionInput) (*fusionMemo, fusionResult, error) {
	next := &fusionMemo{results: in.results, trust: in.trust}
	if last != nil && slices.Equal(last.results, in.results) {
		next.union, next.keys = last.union, last.keys
	} else {
		for _, res := range in.results {
			if next.union == nil {
				next.union = res
				continue
			}
			u, err := next.union.Union(res)
			if err != nil {
				return last, fusionResult{}, err
			}
			next.union = u
		}
		if next.union == nil {
			return last, fusionResult{}, nil
		}
		last = nil // what it remembers is of rows this union does not have
	}

	// Feedback: direct corrections, then learned plausibility rules. The union
	// is indexed by key for the first correction there is to apply.
	patched, corrections := next.union, 0
	if next.keys == nil && slices.ContainsFunc(in.items, feedback.Item.Corrects) {
		next.keys = feedback.IndexKeys(next.union)
	}
	if next.keys != nil {
		patched, corrections = feedback.Apply(next.union, next.keys, in.items)
	}
	patched, suppressed := feedback.ApplyRangeRules(patched, in.rules)
	schema, n := patched.Schema, len(patched.Tuples)
	next.rows = patched.Tuples

	// Duplicate detection across portals, then fusion: identity is the same
	// canonical postcode block and the same normalised street, a score of 1 —
	// attribute conflicts like the bedroom error must not prevent two listings
	// of the same property from merging, they are exactly what fusion is there
	// to resolve. A row whose block or identity cell moved dirties its old
	// block and its new one; a row that moved otherwise only its cluster.
	block := fusion.BlockByAttr(fusionBlockAttr, datagen.CanonicalPostcode)
	bi, si := schema.AttrIndex(fusionBlockAttr), schema.AttrIndex(fusionIdentityAttr)
	next.blocks, next.of = make([]string, n), make([]*cluster, n)
	if last != nil {
		copy(next.blocks, last.blocks)
		copy(next.of, last.of)
	}
	dirty := map[string]bool{}
	changed := last == nil
	var moved []int // rows that keep their block and identity
	for i, t := range next.rows {
		switch {
		case last == nil:
		case sameRow(t, last.rows[i]):
			continue
		case sameAt(t, last.rows[i], bi) && sameAt(t, last.rows[i], si):
			moved = append(moved, i)
			changed = true
			continue
		default:
			dirty[last.blocks[i]] = true
			changed = true
		}
		next.blocks[i] = block(t, schema)
		dirty[next.blocks[i]] = true
	}
	delete(dirty, "")

	var fresh []*cluster // the clusters to fuse
	if len(dirty) > 0 {
		var rows []int
		var blocks []string
		for i, b := range next.blocks {
			if last != nil && next.of[i] != nil && dirty[last.blocks[i]] {
				next.of[i] = nil
			}
			if dirty[b] {
				rows, blocks = append(rows, i), append(blocks, b)
			}
		}
		found := fusion.DetectDuplicates(rowsOf(schema, next.rows, rows), blocks, identityScorer(fusionIdentityAttr), 1)
		for _, members := range found {
			c := &cluster{rows: make([]int, len(members))}
			for j, m := range members {
				c.rows[j] = rows[m]
				next.of[rows[m]] = c
			}
			fresh = append(fresh, c)
		}
	}
	refuse := func(row int) {
		if c := next.of[row]; c != nil && c.fused != nil {
			again := &cluster{rows: c.rows}
			for _, r := range c.rows {
				next.of[r] = again
			}
			fresh = append(fresh, again)
		}
	}
	for _, row := range moved {
		refuse(row)
	}
	// Trust comes from feedback-estimated per-source accuracy when available;
	// every cluster is re-fused when any source's trust moved.
	opts := fusion.Options{Strategy: fusion.Voting, ProvenanceAttr: mapping.ProvenanceAttr, Trust: in.trust}
	if len(in.trust) > 0 {
		opts.Strategy = fusion.TrustWeighted
	}
	if last != nil && !maps.Equal(last.trust, in.trust) {
		for row := range next.rows {
			refuse(row)
		}
	}
	if len(fresh) > 0 {
		var members []int
		clusters := make([][]int, len(fresh))
		for j, c := range fresh {
			for _, r := range c.rows {
				clusters[j] = append(clusters[j], len(members))
				members = append(members, r)
			}
		}
		for j, t := range fusion.Fuse(rowsOf(schema, next.rows, members), clusters, opts).Tuples {
			fresh[j].fused = t
		}
	}

	if !changed && len(fresh) == 0 && last.result.Schema.Name == in.name {
		next.result, next.count = last.result, last.count
	} else {
		out := make([]relation.Tuple, 0, n)
		for i, t := range next.rows {
			switch c := next.of[i]; {
			case c == nil:
				out = append(out, t)
			case c.rows[0] == i:
				out = append(out, c.fused)
				next.count++
			}
		}
		next.result = (&relation.Relation{Schema: schema, Tuples: out}).Distinct()
		next.result.Schema.Name = in.name
	}
	return next, fusionResult{result: next.result, union: n, clusters: next.count,
		corrections: corrections, suppressed: suppressed}, nil
}

// sameRow reports whether a and b are the same row, most often one tuple.
func sameRow(a, b relation.Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0] || a.Same(b))
}

// sameAt reports whether a and b hold the same value at i, which may be no
// position (-1).
func sameAt(a, b relation.Tuple, i int) bool { return i < 0 || a[i].Same(b[i]) }

// rowsOf is a relation of schema holding the given rows, shared.
func rowsOf(schema relation.Schema, tuples []relation.Tuple, rows []int) *relation.Relation {
	out := &relation.Relation{Schema: schema, Tuples: make([]relation.Tuple, len(rows))}
	for j, r := range rows {
		out.Tuples[j] = tuples[r]
	}
	return out
}

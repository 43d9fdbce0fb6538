package core

import (
	"maps"
	"slices"
	"strings"

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
// rows the last run patched each one's fusion key and cluster, each cluster
// with its fused row. A run patches the union anew through the feedback key
// index, regroups only the keys that gained or lost a row, and re-fuses only
// the clusters whose rows moved — every cluster when the trust moved. The
// union order stays what it was, because voting tie-breaks follow it. A memo
// is never written to once stored: a run builds the next, sharing what did
// not move.
type fusionMemo struct {
	results []*relation.Relation
	union   *relation.Relation
	keys    *feedback.Keys
	rows    []relation.Tuple // patched, in union order
	ids     []rowKey         // each row's fusion key; the zero key for none
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

// rowKey is what fusionKey gives a row; the zero key is none.
type rowKey struct{ block, street string }

// fusionKey decides which result rows are duplicates: those with the same
// key, which is the row's canonical postcode block and its street up to case
// and surrounding space. Attribute conflicts like the bedroom error must not
// keep two listings of one property apart — they are exactly what fusion is
// there to resolve — and the street is compared whole, because house numbers
// make the streets of different properties near-identical strings. A row
// without a postcode block or a street has no key and no duplicate.
func fusionKey(t relation.Tuple, schema relation.Schema) rowKey {
	pi, si := schema.AttrIndex("postcode"), schema.AttrIndex("street")
	if pi < 0 || si < 0 || t[pi].IsNull() || t[si].IsNull() {
		return rowKey{}
	}
	block := datagen.CanonicalPostcode(t[pi].String())
	if block == "" {
		return rowKey{}
	}
	return rowKey{block, fusion.Fold(strings.TrimSpace(t[si].String()))}
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

	// Duplicates across portals are the rows that share a fusion key, each
	// set fused by a vote. A row whose key moved dirties its old key and its
	// new one, whose rows are grouped anew; a row that moved otherwise only
	// re-fuses its cluster.
	next.ids, next.of = make([]rowKey, n), make([]*cluster, n)
	if last != nil {
		copy(next.ids, last.ids)
		copy(next.of, last.of)
	}
	dirty := map[rowKey]bool{}
	changed := last == nil
	var moved []int // rows that keep their key
	for i, t := range next.rows {
		if last != nil && sameRow(t, last.rows[i]) {
			continue
		}
		k := fusionKey(t, schema)
		if last != nil {
			changed = true
			if k == last.ids[i] {
				moved = append(moved, i)
				continue
			}
			dirty[last.ids[i]] = true
		}
		next.ids[i], dirty[k] = k, true
	}
	delete(dirty, rowKey{})

	var fresh []*cluster // the clusters to fuse
	if len(dirty) > 0 {
		groups := map[rowKey]*cluster{}
		var order []*cluster // in first-row order
		for i, k := range next.ids {
			if last != nil && dirty[last.ids[i]] {
				next.of[i] = nil
			}
			if !dirty[k] {
				continue
			}
			c := groups[k]
			if c == nil {
				c = &cluster{}
				groups[k] = c
				order = append(order, c)
			}
			c.rows = append(c.rows, i)
		}
		for _, c := range order {
			if len(c.rows) > 1 {
				for _, r := range c.rows {
					next.of[r] = c
				}
				fresh = append(fresh, c)
			}
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
	if last != nil && !maps.Equal(last.trust, in.trust) {
		for row := range next.rows {
			refuse(row)
		}
	}
	provIdx := schema.AttrIndex(mapping.ProvenanceAttr)
	var members []relation.Tuple
	for _, c := range fresh {
		members = members[:0]
		for _, r := range c.rows {
			members = append(members, next.rows[r])
		}
		c.fused = fusion.Vote(members, provIdx, in.trust)
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

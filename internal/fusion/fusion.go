// Package fusion implements duplicate detection and data fusion, the paper's
// example of a transducer that "may start to evaluate when duplicates have
// been detected" (§2). Detection uses blocking plus pairwise similarity with
// union-find clustering; fusion resolves conflicts per attribute under a
// pluggable strategy.
package fusion

import (
	"slices"
	"sort"
	"strings"

	"vada/internal/relation"
)

// BlockingKey maps a tuple to its blocking bucket; tuples in different
// buckets are never compared. Empty keys opt the tuple out of detection.
type BlockingKey func(t relation.Tuple, schema relation.Schema) string

// BlockByAttr blocks on a normalised attribute value (e.g. postcode).
func BlockByAttr(attr string, norm func(string) string) BlockingKey {
	if norm == nil {
		norm = func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
	}
	return func(t relation.Tuple, schema relation.Schema) string {
		i := schema.AttrIndex(attr)
		if i < 0 || t[i].IsNull() {
			return ""
		}
		return norm(t[i].String())
	}
}

// PairScorer scores the similarity of two tuples in [0,1].
type PairScorer func(a, b relation.Tuple, schema relation.Schema) float64

// DetectDuplicates clusters duplicate tuples: tuples sharing a block whose
// pairwise score reaches threshold are unioned; the result lists clusters of
// size ≥ 2, each sorted, in order of first row. blocks[i] is the block of row
// i, "" for none — what a BlockingKey gives it — so that a caller that keeps
// the blocks of a relation's rows computes them once.
func DetectDuplicates(rel *relation.Relation, blocks []string, score PairScorer, threshold float64) [][]int {
	n := rel.Cardinality()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	rowsOf := map[string][]int{}
	for i, k := range blocks {
		if k == "" {
			continue
		}
		rowsOf[k] = append(rowsOf[k], i)
	}
	keys := make([]string, 0, len(rowsOf))
	for k := range rowsOf {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows := rowsOf[k]
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				if score(rel.Tuples[rows[i]], rel.Tuples[rows[j]], rel.Schema) >= threshold {
					union(rows[i], rows[j])
				}
			}
		}
	}

	clusters := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		clusters[r] = append(clusters[r], i)
	}
	var roots []int
	for r, members := range clusters {
		if len(members) >= 2 {
			roots = append(roots, r)
		}
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		members := clusters[r]
		sort.Ints(members)
		out = append(out, members)
	}
	return out
}

// Strategy selects how conflicting values fuse within a cluster.
type Strategy int

const (
	// Voting takes the most frequent non-null value (ties: first seen).
	Voting Strategy = iota
	// MostComplete takes every attribute from the cluster tuple with the
	// most non-null cells, filling its nulls from other members.
	MostComplete
	// TrustWeighted weights votes by per-source trust, read from the
	// provenance attribute.
	TrustWeighted
)

// Options configures Fuse.
type Options struct {
	// Strategy is the conflict-resolution strategy.
	Strategy Strategy
	// ProvenanceAttr names the column holding each tuple's source (needed
	// by TrustWeighted; kept in the output when present).
	ProvenanceAttr string
	// Trust maps source name → weight for TrustWeighted.
	Trust map[string]float64
}

// Fuse merges each duplicate cluster into a single tuple and returns a new
// relation containing the fused tuples plus all non-clustered tuples, in
// original order (clusters appear at their first member's position). The
// non-clustered tuples are rel's own, shared.
func Fuse(rel *relation.Relation, clusters [][]int, opts Options) *relation.Relation {
	inCluster := map[int]int{} // row -> cluster index
	for ci, members := range clusters {
		for _, r := range members {
			inCluster[r] = ci
		}
	}
	emitted := map[int]bool{}
	out := relation.New(rel.Schema)
	provIdx := -1
	if opts.ProvenanceAttr != "" {
		provIdx = rel.Schema.AttrIndex(opts.ProvenanceAttr)
	}
	for i := range rel.Tuples {
		ci, clustered := inCluster[i]
		if !clustered {
			out.Tuples = append(out.Tuples, rel.Tuples[i])
			continue
		}
		if emitted[ci] {
			continue
		}
		emitted[ci] = true
		out.Tuples = append(out.Tuples, fuseCluster(rel, clusters[ci], opts, provIdx))
	}
	return out
}

func fuseCluster(rel *relation.Relation, members []int, opts Options, provIdx int) relation.Tuple {
	arity := rel.Schema.Arity()
	switch opts.Strategy {
	case MostComplete:
		best, bestCount := members[0], -1
		for _, r := range members {
			n := 0
			for _, v := range rel.Tuples[r] {
				if !v.IsNull() {
					n++
				}
			}
			if n > bestCount {
				best, bestCount = r, n
			}
		}
		t := rel.Tuples[best].Clone()
		for col := 0; col < arity; col++ {
			if !t[col].IsNull() {
				continue
			}
			for _, r := range members {
				if v := rel.Tuples[r][col]; !v.IsNull() {
					t[col] = v
					break
				}
			}
		}
		return t
	default: // Voting and TrustWeighted share the weighted-vote core.
		t := make(relation.Tuple, arity)
		// The distinct values of a column in first-seen order, and their
		// weights: a cluster is a handful of rows, so a scan finds a value.
		var seen []relation.Value
		var weights []float64
		for col := 0; col < arity; col++ {
			seen, weights = seen[:0], weights[:0]
			for _, r := range members {
				v := rel.Tuples[r][col]
				if v.IsNull() {
					continue
				}
				w := 1.0
				if opts.Strategy == TrustWeighted && provIdx >= 0 {
					src := rel.Tuples[r][provIdx].String()
					if tw, ok := opts.Trust[src]; ok {
						w = tw
					}
				}
				j := slices.IndexFunc(seen, v.Same)
				if j < 0 {
					j, seen, weights = len(seen), append(seen, v), append(weights, 0)
				}
				weights[j] += w
			}
			bestW := -1.0
			for j, w := range weights {
				if w > bestW {
					bestW = w
					t[col] = seen[j]
				}
			}
			if bestW < 0 {
				t[col] = relation.Null()
			}
		}
		return t
	}
}

// Package workload generates the query workloads of Section 5.1.
//
// Positive workloads: queries with non-zero selectivity, sampled per
// query size ("level") by growing random connected subtrees of the data
// tree, deduplicated by canonical key. The paper enumerates all occurred
// patterns per level and samples them; growing from the document samples
// the same population without materializing high levels of the lattice.
//
// Negative workloads: queries with zero selectivity, obtained from
// positive queries by randomly replacing node labels in proportion to
// label frequency (frequent labels replace more often, making the
// erroneous queries look plausible), keeping only those whose true
// selectivity is zero.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
)

// Query is a workload entry with its ground-truth selectivity.
type Query struct {
	Pattern   labeltree.Pattern
	TrueCount int64
}

// Options configures workload generation.
type Options struct {
	// Sizes lists the query sizes (levels) to generate; the paper uses
	// 4 through 8.
	Sizes []int
	// PerSize is the number of distinct queries per size.
	PerSize int
	// Seed makes generation deterministic.
	Seed int64
	// MaxAttempts bounds sampling effort per size; generation returns
	// fewer queries when a level has too few distinct patterns. Default
	// 200 × PerSize.
	MaxAttempts int
}

// Positive samples positive workloads from t, keyed by query size.
func Positive(t *labeltree.Tree, opts Options) (map[int][]Query, error) {
	if len(opts.Sizes) == 0 || opts.PerSize <= 0 {
		return nil, fmt.Errorf("workload: Sizes and PerSize must be set")
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 200 * opts.PerSize
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	x := twigjoin.NewIndex(t)
	out := make(map[int][]Query, len(opts.Sizes))
	for _, size := range opts.Sizes {
		if size < 1 {
			return nil, fmt.Errorf("workload: invalid size %d", size)
		}
		seen := make(map[labeltree.Key]bool)
		var queries []Query
		var patterns []labeltree.Pattern
		for attempt := 0; attempt < maxAttempts && len(patterns) < opts.PerSize; attempt++ {
			p, ok := growPattern(t, rng, size)
			if !ok {
				continue
			}
			key := p.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			patterns = append(patterns, p)
		}
		counts, err := twigjoin.CountAllContext(context.Background(), x, patterns, 0)
		if err != nil {
			return nil, err
		}
		for i, p := range patterns {
			if counts[i] == 0 {
				// Cannot happen for grown patterns; defensive.
				continue
			}
			queries = append(queries, Query{Pattern: p, TrueCount: counts[i]})
		}
		out[size] = queries
	}
	return out, nil
}

// growPattern grows a connected subtree of size nodes starting from a
// random data node, returning the induced pattern. It reports failure if
// the chosen start cannot reach the requested size.
func growPattern(t *labeltree.Tree, rng *rand.Rand, size int) (labeltree.Pattern, bool) {
	start := int32(rng.Intn(t.Size()))
	chosen := []int32{start}
	inChosen := map[int32]bool{start: true}
	// Frontier: data children of chosen nodes, plus the parent of the
	// current root (upward growth keeps path-heavy shapes reachable).
	for len(chosen) < size {
		var frontier []int32
		for _, v := range chosen {
			for _, c := range t.Children(v) {
				if !inChosen[c] {
					frontier = append(frontier, c)
				}
			}
		}
		if p := t.Parent(chosen[0]); p >= 0 && !inChosen[p] {
			frontier = append(frontier, p)
		}
		if len(frontier) == 0 {
			return labeltree.Pattern{}, false
		}
		pick := frontier[rng.Intn(len(frontier))]
		inChosen[pick] = true
		if pick == t.Parent(chosen[0]) {
			// Upward growth: the new node becomes the subtree root. (The
			// parent of the current root is never also a child of a
			// chosen node, since all other chosen nodes are descendants
			// of the root.)
			chosen = append([]int32{pick}, chosen...)
		} else {
			chosen = append(chosen, pick)
		}
	}
	return inducedPattern(t, chosen), true
}

// inducedPattern converts a connected set of data nodes (first element is
// the shallowest) into a pattern.
func inducedPattern(t *labeltree.Tree, nodes []int32) labeltree.Pattern {
	ordered := append([]int32(nil), nodes...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a] < ordered[b] })
	idx := make(map[int32]int32, len(ordered))
	for i, v := range ordered {
		idx[v] = int32(i)
	}
	labels := make([]labeltree.LabelID, len(ordered))
	parents := make([]int32, len(ordered))
	for i, v := range ordered {
		labels[i] = t.Label(v)
		if i == 0 {
			parents[i] = -1
			continue
		}
		p, ok := idx[t.Parent(v)]
		if !ok {
			panic("workload: chosen nodes are not connected")
		}
		parents[i] = p
	}
	return labeltree.MustPattern(labels, parents)
}

// FromLattice samples positive workloads exactly the way the paper
// describes (Section 5.1): enumerate the set of all occurred patterns at
// each level by mining, then sample per level. It costs a mining run to
// the largest requested size — affordable for small sizes; Positive's
// subtree growth samples the same population without materializing high
// lattice levels.
func FromLattice(t *labeltree.Tree, miner func(level int) ([]labeltree.Pattern, []int64, error), opts Options) (map[int][]Query, error) {
	if len(opts.Sizes) == 0 || opts.PerSize <= 0 {
		return nil, fmt.Errorf("workload: Sizes and PerSize must be set")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	out := make(map[int][]Query, len(opts.Sizes))
	for _, size := range opts.Sizes {
		patterns, counts, err := miner(size)
		if err != nil {
			return nil, err
		}
		if len(patterns) != len(counts) {
			return nil, fmt.Errorf("workload: miner returned %d patterns but %d counts", len(patterns), len(counts))
		}
		idx := rng.Perm(len(patterns))
		n := opts.PerSize
		if n > len(idx) {
			n = len(idx)
		}
		qs := make([]Query, 0, n)
		for _, i := range idx[:n] {
			qs = append(qs, Query{Pattern: patterns[i], TrueCount: counts[i]})
		}
		out[size] = qs
	}
	return out, nil
}

// Negative derives zero-selectivity queries from a positive workload by
// frequency-weighted label perturbation.
func Negative(t *labeltree.Tree, positive map[int][]Query, opts Options) (map[int][]Query, error) {
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	x := twigjoin.NewIndex(t)
	// Frequency-weighted label sampler.
	labels := t.DistinctLabels()
	sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
	cum := make([]int, len(labels))
	total := 0
	for i, l := range labels {
		total += len(x.Stream(l))
		cum[i] = total
	}
	pickLabel := func() labeltree.LabelID {
		x := rng.Intn(total)
		i := sort.SearchInts(cum, x+1)
		return labels[i]
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 200 * opts.PerSize
	}
	out := make(map[int][]Query, len(positive))
	// Iterate sizes in ascending order: ranging over the map would
	// consume rng draws in a runtime-randomized order, making the
	// "deterministic" seed produce a different workload every run.
	sizes := make([]int, 0, len(positive))
	for size := range positive {
		sizes = append(sizes, size)
	}
	sort.Ints(sizes)
	for _, size := range sizes {
		qs := positive[size]
		if len(qs) == 0 {
			continue
		}
		seen := make(map[labeltree.Key]bool)
		var negs []Query
		for attempt := 0; attempt < maxAttempts && len(negs) < opts.PerSize; attempt++ {
			base := qs[rng.Intn(len(qs))].Pattern
			node := int32(rng.Intn(base.Size()))
			mutated := base.Relabel(node, pickLabel())
			key := mutated.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			if twigjoin.CountPattern(x, mutated) != 0 {
				continue
			}
			negs = append(negs, Query{Pattern: mutated, TrueCount: 0})
		}
		out[size] = negs
	}
	return out, nil
}

// Package treesketch implements the comparison baseline: a
// TreeSketches-style graph synopsis (Polyzotis, Garofalakis, Ioannidis,
// SIGMOD 2004) built from scratch. The paper evaluated against the
// authors' private executable; this reimplementation follows the published
// design closely enough to reproduce its behaviour:
//
//   - The synopsis is a directed graph. Each synopsis node covers a set of
//     data elements sharing a label and stores the element count; each
//     edge (u, v) carries the average number of v-children per u-element
//     (Section 5.3 and Figure 11 of the TreeLattice paper).
//   - Construction refines the label partition toward count stability
//     (a bisimulation-style refinement on child-cluster count signatures)
//     and then merges similar clusters bottom-up, one cheapest pair per
//     label group per round, until the synopsis fits the memory budget.
//     The repeated candidate scoring over a fine partition is what makes
//     construction expensive — the effect Table 3 of the paper reports.
//   - Estimation multiplies average child counts along the query tree.
//     With a coarse partition the per-element child-count variance hidden
//     behind each average compounds multiplicatively, the error mechanism
//     the paper dissects in its Figure 11 discussion.
package treesketch

import (
	"context"
	"fmt"
	"sort"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
)

// Options configures synopsis construction.
type Options struct {
	// BudgetBytes is the target synopsis size. Default 50 KB, the
	// setting used throughout the paper's evaluation.
	BudgetBytes int
	// MaxRefineClusters stops count-stability refinement once the
	// partition grows beyond this many clusters (the previous round's
	// partition is kept). Default 20000.
	MaxRefineClusters int
	// MaxRefineRounds bounds refinement iterations. Default 16.
	MaxRefineRounds int
	// MaxMergeRounds bounds the merging loop; construction stops at the
	// budget or after this many rounds, whichever comes first. Default
	// 10000 (effectively unbounded).
	MaxMergeRounds int
}

func (o *Options) fill() {
	if o.BudgetBytes == 0 {
		o.BudgetBytes = 50 << 10
	}
	if o.MaxRefineClusters == 0 {
		o.MaxRefineClusters = 20000
	}
	if o.MaxRefineRounds == 0 {
		o.MaxRefineRounds = 16
	}
	if o.MaxMergeRounds == 0 {
		o.MaxMergeRounds = 10000
	}
}

// Synopsis is the built graph synopsis. It is immutable and safe for
// concurrent estimation.
type Synopsis struct {
	dict    *labeltree.Dict
	labels  []labeltree.LabelID // per synopsis node
	counts  []int64             // elements covered per synopsis node
	edges   [][]edge            // outgoing, sorted by target
	byLabel map[labeltree.LabelID][]int32
}

type edge struct {
	to  int32
	avg float64 // average children in `to` per element
}

// Build constructs a synopsis of t within the memory budget.
func Build(t *labeltree.Tree, opts Options) *Synopsis {
	opts.fill()
	cluster := refine(t, opts)
	cluster = mergeToBudget(t, cluster, opts)
	return assemble(t, cluster)
}

// refine starts from the label partition and refines by child-cluster
// count signatures until stable, a round bound, or a size cap.
func refine(t *labeltree.Tree, opts Options) []int32 {
	n := t.Size()
	cluster := make([]int32, n)
	ids := make(map[labeltree.LabelID]int32)
	for i := int32(0); int(i) < n; i++ {
		l := t.Label(i)
		id, ok := ids[l]
		if !ok {
			id = int32(len(ids))
			ids[l] = id
		}
		cluster[i] = id
	}
	numClusters := len(ids)
	for round := 0; round < opts.MaxRefineRounds; round++ {
		next := make([]int32, n)
		sig2id := make(map[string]int32)
		for i := int32(0); int(i) < n; i++ {
			sig := signature(t, cluster, i)
			id, ok := sig2id[sig]
			if !ok {
				id = int32(len(sig2id))
				sig2id[sig] = id
			}
			next[i] = id
		}
		if len(sig2id) > opts.MaxRefineClusters {
			return cluster // keep the coarser partition
		}
		if len(sig2id) == numClusters {
			return next // stable
		}
		numClusters = len(sig2id)
		cluster = next
	}
	return cluster
}

// signature renders (own cluster, sorted child-cluster counts) as a key.
func signature(t *labeltree.Tree, cluster []int32, i int32) string {
	counts := make(map[int32]int32)
	for _, c := range t.Children(i) {
		counts[cluster[c]]++
	}
	keys := make([]int32, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	buf := make([]byte, 0, 8+8*len(keys))
	buf = appendInt32(buf, cluster[i])
	for _, k := range keys {
		buf = appendInt32(buf, k)
		buf = appendInt32(buf, counts[k])
	}
	return string(buf)
}

func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// clusterStats holds, per cluster, the element count and per-child-cluster
// first and second moments of child counts, from which merge costs and
// edge averages derive.
type clusterStats struct {
	n int64
	s map[int32]float64 // sum of child counts per child cluster
	q map[int32]float64 // sum of squared child counts per child cluster
}

// wss is the within-cluster sum of squares of the child-count vectors:
// the information lost by replacing per-element counts with the average.
func (c *clusterStats) wss() float64 {
	var total float64
	for d, s := range c.s {
		total += c.q[d] - s*s/float64(c.n)
	}
	return total
}

func computeStats(t *labeltree.Tree, cluster []int32) map[int32]*clusterStats {
	stats := make(map[int32]*clusterStats)
	counts := make(map[int32]float64) // scratch: child cluster -> count
	for i := int32(0); int(i) < t.Size(); i++ {
		c := cluster[i]
		st, ok := stats[c]
		if !ok {
			st = &clusterStats{s: make(map[int32]float64), q: make(map[int32]float64)}
			stats[c] = st
		}
		st.n++
		for k := range counts {
			delete(counts, k)
		}
		for _, ch := range t.Children(i) {
			counts[cluster[ch]]++
		}
		for d, k := range counts {
			st.s[d] += k
			st.q[d] += k * k
		}
	}
	return stats
}

// mergeToBudget greedily merges same-label cluster pairs — the single
// globally cheapest pair per iteration, as in the published bottom-up
// greedy — until the accounted synopsis size fits the budget. Stats are
// recomputed from the data after every merge so that merge effects on
// edges (including self-edges and incoming edges) are always accounted;
// this full rescoring is what makes TreeSketches construction expensive,
// the effect Table 3 of the paper reports.
func mergeToBudget(t *labeltree.Tree, cluster []int32, opts Options) []int32 {
	for round := 0; round < opts.MaxMergeRounds; round++ {
		stats := computeStats(t, cluster)
		if statsSizeBytes(stats) <= opts.BudgetBytes {
			return cluster
		}
		// Group clusters by label.
		groups := make(map[labeltree.LabelID][]int32)
		repLabel := make(map[int32]labeltree.LabelID)
		for i := int32(0); int(i) < t.Size(); i++ {
			if _, ok := repLabel[cluster[i]]; !ok {
				repLabel[cluster[i]] = t.Label(i)
			}
		}
		for c, l := range repLabel {
			groups[l] = append(groups[l], c)
		}
		wssCache := make(map[int32]float64, len(stats))
		for c, st := range stats {
			wssCache[c] = st.wss()
		}
		labels := make([]labeltree.LabelID, 0, len(groups))
		for l := range groups {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		bu, bv, bestCost := int32(-1), int32(-1), 0.0
		first := true
		for _, l := range labels {
			group := groups[l]
			if len(group) < 2 {
				continue
			}
			sort.Slice(group, func(a, b int) bool { return group[a] < group[b] })
			for ai := 0; ai < len(group); ai++ {
				for bi := ai + 1; bi < len(group); bi++ {
					u, v := group[ai], group[bi]
					cost := mergeCost(stats[u], stats[v]) - wssCache[u] - wssCache[v]
					if first || cost < bestCost {
						first, bestCost = false, cost
						bu, bv = u, v
					}
				}
			}
		}
		if bu < 0 {
			return cluster // nothing left to merge
		}
		for i, c := range cluster {
			if c == bv {
				cluster[i] = bu
			}
		}
	}
	return cluster
}

// mergeCost is the within-cluster sum of squares of the merged cluster
// u ∪ v; callers subtract the (cached) individual WSS values to get the
// increase. Allocation-free: it iterates the union of the edge keys.
func mergeCost(u, v *clusterStats) float64 {
	n := float64(u.n + v.n)
	var total float64
	for d, su := range u.s {
		s := su + v.s[d]
		total += u.q[d] + v.q[d] - s*s/n
	}
	for d, sv := range v.s {
		if _, shared := u.s[d]; shared {
			continue
		}
		total += v.q[d] - sv*sv/n
	}
	return total
}

// statsSizeBytes is the accounted size of a synopsis over these clusters:
// 12 bytes per node (label + count) and 12 per edge (target + average).
func statsSizeBytes(stats map[int32]*clusterStats) int {
	total := 0
	for _, st := range stats {
		total += 12 + 12*len(st.s)
	}
	return total
}

// assemble produces the immutable synopsis from a final clustering.
func assemble(t *labeltree.Tree, cluster []int32) *Synopsis {
	// Renumber clusters densely.
	dense := make(map[int32]int32)
	for _, c := range cluster {
		if _, ok := dense[c]; !ok {
			dense[c] = int32(len(dense))
		}
	}
	syn := &Synopsis{
		dict:    t.Dict(),
		labels:  make([]labeltree.LabelID, len(dense)),
		counts:  make([]int64, len(dense)),
		edges:   make([][]edge, len(dense)),
		byLabel: make(map[labeltree.LabelID][]int32),
	}
	sums := make([]map[int32]float64, len(dense))
	for i := int32(0); int(i) < t.Size(); i++ {
		c := dense[cluster[i]]
		syn.labels[c] = t.Label(i)
		syn.counts[c]++
		if sums[c] == nil {
			sums[c] = make(map[int32]float64)
		}
		for _, ch := range t.Children(i) {
			sums[c][dense[cluster[ch]]]++
		}
	}
	for c := range sums {
		targets := make([]int32, 0, len(sums[c]))
		for d := range sums[c] {
			targets = append(targets, d)
		}
		sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })
		for _, d := range targets {
			syn.edges[c] = append(syn.edges[c], edge{to: d, avg: sums[c][d] / float64(syn.counts[c])})
		}
	}
	for c, l := range syn.labels {
		syn.byLabel[l] = append(syn.byLabel[l], int32(c))
	}
	return syn
}

// Nodes reports the number of synopsis nodes.
func (s *Synopsis) Nodes() int { return len(s.labels) }

// SizeBytes is the accounted storage size: 12 bytes per node plus 12 per
// edge.
func (s *Synopsis) SizeBytes() int {
	total := 12 * len(s.labels)
	for _, es := range s.edges {
		total += 12 * len(es)
	}
	return total
}

// Name identifies the estimator in experiment output.
func (s *Synopsis) Name() string { return "treesketches" }

// Estimate returns the estimated number of matches of q: for every
// synopsis node with the root's label, the element count times the
// expected per-element match count of the query body, where each edge
// contributes its average child count multiplicatively.
func (s *Synopsis) Estimate(q labeltree.Pattern) float64 {
	children := make([][]int32, q.Size())
	for i := int32(1); int(i) < q.Size(); i++ {
		children[q.Parent(i)] = append(children[q.Parent(i)], i)
	}
	memo := make(map[[2]int32]float64)
	var perElement func(c, p int32) float64
	perElement = func(c, p int32) float64 {
		if s.labels[c] != q.Label(p) {
			return 0
		}
		if len(children[p]) == 0 {
			return 1
		}
		key := [2]int32{c, p}
		if v, ok := memo[key]; ok {
			return v
		}
		prod := 1.0
		for _, pc := range children[p] {
			var sum float64
			for _, e := range s.edges[c] {
				if s.labels[e.to] == q.Label(pc) {
					sum = estimate.Saturate(sum + e.avg*perElement(e.to, pc))
				}
			}
			if sum == 0 {
				prod = 0
				break
			}
			prod = estimate.Saturate(prod * sum)
		}
		memo[key] = prod
		return prod
	}
	var total float64
	for _, c := range s.byLabel[q.RootLabel()] {
		total = estimate.Saturate(total + float64(s.counts[c])*perElement(c, 0))
	}
	return total
}

// EstimateContext is Estimate gated on ctx. One synopsis walk is
// microseconds over a budget-bounded graph, so a single entry check is
// the whole cooperative contract; multi-document callers poll between
// documents.
func (s *Synopsis) EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.Estimate(q), nil
}

// String summarizes the synopsis.
func (s *Synopsis) String() string {
	e := 0
	for _, es := range s.edges {
		e += len(es)
	}
	return fmt.Sprintf("treesketch synopsis: %d nodes, %d edges, %d bytes", len(s.labels), e, s.SizeBytes())
}

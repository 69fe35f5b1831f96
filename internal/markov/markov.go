// Package markov implements the Markov-table estimator for XML path
// selectivity in the style of Lore and Aboulnaga et al.: counts of all
// downward label paths up to length K, with longer paths estimated under
// the order-(K−1) Markov property. It serves two purposes: a baseline for
// the path special case, and the executable statement of Lemma 4 — the
// paper's decomposition estimators reduce exactly to this formula on path
// queries.
package markov

import (
	"fmt"
	"math"
	"strings"

	"treelattice/internal/labeltree"
)

// Table stores counts of label paths of length 1..K.
type Table struct {
	k      int
	dict   *labeltree.Dict
	counts map[string]int64
}

// Build scans every downward path of length up to k in t. Cost is
// O(nodes · k).
func Build(t *labeltree.Tree, k int) *Table {
	if k < 2 {
		panic(fmt.Sprintf("markov: K must be >= 2, got %d", k))
	}
	tb := &Table{k: k, dict: t.Dict(), counts: make(map[string]int64)}
	// For each node, register the paths of length <= k that end at it.
	labels := make([]labeltree.LabelID, 0, k)
	for i := int32(0); int(i) < t.Size(); i++ {
		labels = labels[:0]
		at := i
		for len(labels) < k && at >= 0 {
			labels = append(labels, t.Label(at))
			at = t.Parent(at)
		}
		// labels is the upward label sequence from i; every suffix of it
		// reversed is a downward path ending at i.
		for l := 1; l <= len(labels); l++ {
			tb.counts[upwardKey(labels[:l])]++
		}
	}
	return tb
}

// BuildForest scans several documents (sharing one dictionary) into a
// single table; path counts are additive across independent trees.
func BuildForest(trees []*labeltree.Tree, k int) *Table {
	if len(trees) == 0 {
		panic("markov: BuildForest needs at least one tree")
	}
	tb := Build(trees[0], k)
	for _, t := range trees[1:] {
		other := Build(t, k)
		for key, n := range other.counts {
			tb.counts[key] += n
		}
	}
	return tb
}

// K returns the maximum stored path length.
func (tb *Table) K() int { return tb.k }

// Len reports the number of stored paths.
func (tb *Table) Len() int { return len(tb.counts) }

// upwardKey renders an upward label sequence (node, parent, grandparent…)
// as the key of the corresponding downward path.
func upwardKey(up []labeltree.LabelID) string {
	var b strings.Builder
	for i := len(up) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%d/", up[i])
	}
	return b.String()
}

// downwardKey renders a root-to-leaf label sequence.
func downwardKey(down []labeltree.LabelID) string {
	var b strings.Builder
	for _, l := range down {
		fmt.Fprintf(&b, "%d/", l)
	}
	return b.String()
}

// Count returns the exact stored count of a downward label path of length
// ≤ K, or 0 if it does not occur.
func (tb *Table) Count(path []labeltree.LabelID) int64 {
	if len(path) > tb.k {
		panic("markov: Count on path longer than K")
	}
	return tb.counts[downwardKey(path)]
}

// Estimate returns the estimated selectivity of a downward label path of
// any length, applying the Markov formula of Lemma 4 beyond length K:
//
//	f(t1…tn) = f(t1…tk) · Π_{i=2}^{n−k+1} f(ti…t(i+k−1)) / f(ti…t(i+k−2))
func (tb *Table) Estimate(path []labeltree.LabelID) float64 {
	if len(path) == 0 {
		return 0
	}
	if len(path) <= tb.k {
		return float64(tb.Count(path))
	}
	est := float64(tb.counts[downwardKey(path[:tb.k])])
	for i := 1; i+tb.k <= len(path); i++ {
		num := float64(tb.counts[downwardKey(path[i:i+tb.k])])
		den := float64(tb.counts[downwardKey(path[i:i+tb.k-1])])
		if den == 0 {
			return 0
		}
		est = saturate(est * (num / den))
	}
	return est
}

// saturate is estimate.Saturate, kept here because estimate's tests
// import this package: x where it is finite, math.MaxFloat64 where it
// is not, so a wide twig's product saturates instead of overflowing.
func saturate(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

// EstimatePattern estimates a path-shaped twig pattern. It panics on
// branching patterns; use the decomposition estimators for those.
func (tb *Table) EstimatePattern(p labeltree.Pattern) float64 {
	return tb.Estimate(p.PathLabels())
}

// EstimateTwig generalizes the table from paths to twigs under the
// standard path-independence assumption: the branches below a node grow
// independently given the path to it, so
//
//	f(twig) = Π_leaves f(root..leaf) / Π_branching f(root..node)^(deg−1).
//
// Leaf paths fold in first, in node order, then the branching-node
// corrections in node order; a path-shaped pattern is one leaf path. A
// zero correction means the branching point itself cannot occur, so the
// twig cannot either. This is the markov method of core's method table.
func (tb *Table) EstimateTwig(p labeltree.Pattern) float64 {
	degree := make([]int, p.Size())
	for i := int32(1); int(i) < p.Size(); i++ {
		degree[p.Parent(i)]++
	}
	// pathTo materializes the root-to-node label path by walking parents.
	pathTo := func(n int32) []labeltree.LabelID {
		var rev []labeltree.LabelID
		for at := n; at >= 0; at = p.Parent(at) {
			rev = append(rev, p.Label(at))
		}
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		return rev
	}
	est := 1.0
	for n := int32(0); int(n) < p.Size(); n++ {
		if degree[n] == 0 {
			est = saturate(est * tb.Estimate(pathTo(n)))
		}
	}
	for n := int32(0); int(n) < p.Size(); n++ {
		if degree[n] < 2 {
			continue
		}
		v := tb.Estimate(pathTo(n))
		if v == 0 {
			return 0
		}
		for j := 0; j < degree[n]-1; j++ {
			est = saturate(est / v)
		}
	}
	return est
}

// SizeBytes is the accounted storage size: 8 bytes of count plus 4 bytes
// per path step.
func (tb *Table) SizeBytes() int {
	total := 0
	for k := range tb.counts {
		total += 8 + 4*strings.Count(k, "/")
	}
	return total
}

package estimate

import (
	"context"

	"treelattice/internal/labeltree"
)

// FixSized is the fix-sized decomposition estimator of Section 3.3: it
// covers the query with K-subtrees in preorder (Figure 5) and applies the
// telescoping product of Lemma 3.
type FixSized struct {
	Sum Store
}

// NewFixSized returns a fix-sized decomposition estimator over sum.
func NewFixSized(sum Store) *FixSized { return &FixSized{Sum: sum} }

// Name implements Estimator.
func (f *FixSized) Name() string { return "fix-sized" }

// Estimate implements Estimator.
func (f *FixSized) Estimate(q labeltree.Pattern) float64 {
	est, _ := f.estimate(nil, q)
	return est
}

// EstimateContext implements ContextEstimator; the pruned-lattice
// reconstruction recursion behind each cover term polls ctx at bounded
// intervals.
func (f *FixSized) EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error) {
	return f.estimate(ctx, q)
}

func (f *FixSized) estimate(ctx context.Context, q labeltree.Pattern) (float64, error) {
	// One engine across all cover terms: the memo is shared exactly as the
	// per-call memo map was, and the context poll counter spans the whole
	// telescoping product.
	e := engine{sum: f.Sum, memo: make(map[labeltree.Key]float64), ctx: ctx}
	defer e.release()
	if ctx != nil {
		// Fail fast: the direct-hit path below never polls.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	if c, ok := f.Sum.Count(q); ok {
		return float64(c), nil
	}
	// The preorder cover depends on node numbering; canonicalizing first
	// makes the estimate a function of the query's isomorphism class.
	q = q.Canonicalize()
	if q.Size() <= f.Sum.K() {
		// In range but missing: absent (count 0) for a complete lattice,
		// derivable for a pruned one.
		est := e.estimate(q)
		if e.ctxErr != nil {
			return 0, e.ctxErr
		}
		return est, nil
	}
	cover := Cover(q, f.Sum.K())
	est := e.estimate(q.Subpattern(cover[0]))
	if e.ctxErr != nil {
		return 0, e.ctxErr
	}
	if est == 0 {
		return 0, nil
	}
	for _, step := range cover[1:] {
		overlap := step[:len(step)-1] // all but the newly covered node
		num := e.estimate(q.Subpattern(step))
		if num == 0 {
			if e.ctxErr != nil {
				return 0, e.ctxErr
			}
			return 0, nil
		}
		den := e.estimate(q.Subpattern(overlap))
		if den == 0 {
			if e.ctxErr != nil {
				return 0, e.ctxErr
			}
			return 0, nil
		}
		est = Saturate(est * (num / den))
	}
	if e.ctxErr != nil {
		return 0, e.ctxErr
	}
	return est, nil
}

// Cover computes the fix-sized covering of Lemma 2: a sequence of
// n−k+1 node sets, each a connected k-subtree of q. The first is the
// preorder prefix of k nodes; every later set consists of one newly
// covered node (its last element) plus a connected (k−1)-subset of the
// already-covered nodes that contains the new node's parent. Panics if
// q has fewer than k nodes.
//
// Every step slice is a full-capacity span into one backing buffer, and
// membership tracking uses flat []bool scratch — the cover runs once per
// over-size estimate, and per-step maps dominated its cost.
func Cover(q labeltree.Pattern, k int) [][]int32 {
	n := q.Size()
	if n < k {
		panic("estimate: Cover called with pattern smaller than k")
	}
	// CSR child lists and preorder built locally: Pattern.Children and
	// Pattern.Preorder allocate per node.
	childPos := make([]int32, n+1)
	for i := int32(1); int(i) < n; i++ {
		childPos[q.Parent(i)+1]++
	}
	for i := 0; i < n; i++ {
		childPos[i+1] += childPos[i]
	}
	childIdx := make([]int32, n-1)
	next := make([]int32, n)
	copy(next, childPos[:n])
	for i := int32(1); int(i) < n; i++ {
		p := q.Parent(i)
		childIdx[next[p]] = i
		next[p]++
	}
	order := make([]int32, 0, n)
	stack := append(next[:0], 0) // next's storage is free now; reuse it
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, u)
		kids := childIdx[childPos[u]:childPos[u+1]]
		for j := len(kids) - 1; j >= 0; j-- {
			stack = append(stack, kids[j])
		}
	}

	// Exact-capacity backing buffer: k nodes for the first set plus k per
	// later step, so appends never reallocate and spans stay valid.
	buf := make([]int32, 0, (n-k+1)*k)
	out := make([][]int32, 0, n-k+1)
	covered := make([]bool, n)
	in := make([]bool, n)
	buf = append(buf, order[:k]...)
	first := buf[0:k:k]
	for _, v := range first {
		covered[v] = true
	}
	out = append(out, first)
	var frontier []int32
	for _, v := range order[k:] {
		start := len(buf)
		buf, frontier = appendOverlap(buf, q, childPos, childIdx, covered, in, q.Parent(v), k-1, frontier)
		buf = append(buf, v)
		out = append(out, buf[start:len(buf):len(buf)])
		covered[v] = true
	}
	return out
}

// appendOverlap appends to buf a connected subset of covered nodes of the
// given size containing anchor. It prefers the anchor's ancestor chain,
// then grows breadth-first over covered neighbors in deterministic
// (ascending node) order — the same order the map-based implementation
// produced. The in scratch is cleared of every touched entry on return;
// frontier is returned so its storage is reused across steps.
func appendOverlap(buf []int32, q labeltree.Pattern, childPos, childIdx []int32, covered, in []bool, anchor int32, size int, frontier []int32) ([]int32, []int32) {
	start := len(buf)
	in[anchor] = true
	buf = append(buf, anchor)
	// Walk up ancestors first: they are always covered and connected.
	for at := q.Parent(anchor); at >= 0 && len(buf)-start < size; at = q.Parent(at) {
		in[at] = true
		buf = append(buf, at)
	}
	// Grow over covered neighbors (children of set members, and parents,
	// which are already in) until the target size.
	for len(buf)-start < size {
		frontier = frontier[:0]
		for _, u := range buf[start:] {
			for _, c := range childIdx[childPos[u]:childPos[u+1]] {
				if covered[c] && !in[c] {
					frontier = append(frontier, c)
				}
			}
		}
		if len(frontier) == 0 {
			panic("estimate: covered region too small for overlap; invariant violated")
		}
		// Insertion sort ascending: frontiers are tiny and this avoids
		// sort.Slice's closure and interface costs.
		for a := 1; a < len(frontier); a++ {
			c := frontier[a]
			b := a
			for b > 0 && frontier[b-1] > c {
				frontier[b] = frontier[b-1]
				b--
			}
			frontier[b] = c
		}
		for _, c := range frontier {
			if len(buf)-start == size {
				break
			}
			if !in[c] {
				in[c] = true
				buf = append(buf, c)
			}
		}
	}
	for _, u := range buf[start:] {
		in[u] = false
	}
	return buf, frontier
}

// Package twigjoin executes and counts twig queries against data trees.
// It enumerates the actual match tuples, and it counts them without
// enumeration — the selectivity TreeLattice estimates, and the ground
// truth the miner, the exact-count endpoint and the experiments rely on.
// It is the substrate the paper's motivation presumes ("determining an
// optimal query plan, based on said estimates"): internal/planner
// chooses evaluation orders over this engine using TreeLattice
// estimates.
//
// The engine supports both structural axes of twig queries:
//
//   - Child ("/"): the paper's Definition 1 semantics; an edge (u, u')
//     must map to a parent-child edge.
//   - Descendant ("//"): the edge may map to any ancestor-descendant
//     pair, the usual XPath semantics.
//
// Matching is 1-1 (injective) in both cases, matching Definition 1.
//
// Data access goes through an Index: a region (start, end) encoding from
// one DFS, an inverted label-region index — per label, the nodes carrying
// it and their preorder starts, in document order — and a child index
// holding every node's children sorted stably by label, each node's run
// at the position the tree's own child array gives it, so the index
// reads its run bounds from the tree and stores no offsets. Descendant
// steps binary-search the label's starts for the parent's (start, end)
// window; child steps search only the parent's own children for the
// label. Both probes return shared subslices in document order; neither
// walks the tree or allocates. The build is one DFS plus one fill pass
// over the nodes in (label, document) order, O(n + L log L) for n nodes
// and L distinct labels, however many children one node has.
package twigjoin

import (
	"slices"

	"treelattice/internal/labeltree"
)

// Index is the access structure the join algorithms run on. Build one per
// document with NewIndex; it is immutable and safe for concurrent use.
type Index struct {
	tree  *labeltree.Tree
	start []int32 // preorder rank
	end   []int32 // start of last descendant + 1 (exclusive bound on subtree)

	// kids holds every node's children, each node's run sorted stably by
	// label, so the children sharing a label sit together in document
	// order. Node i's run sits where the tree's holds its children:
	// kids[lo:hi] for lo, hi := tree.ChildBounds(i).
	kids []int32

	regions map[labeltree.LabelID]*labelRegions
}

// labelRegions is one label's slice of the inverted region index: every
// node carrying the label, in document order, with the preorder starts
// copied alongside so descendant probes binary-search a dense array
// instead of chasing node ids back into the tree-wide start table.
type labelRegions struct {
	label  labeltree.LabelID
	nodes  []int32 // document order (ascending start)
	starts []int32 // starts[i] == Index.start[nodes[i]]
}

// NewIndex region-encodes t and builds the label-region and child indexes.
func NewIndex(t *labeltree.Tree) *Index {
	n := t.Size()
	idx := &Index{
		tree:    t,
		start:   make([]int32, n),
		end:     make([]int32, n),
		kids:    make([]int32, n-1),
		regions: make(map[labeltree.LabelID]*labelRegions),
	}
	// Carve every label's lists from two shared arrays, laid out by
	// ascending label, so that the arrays end up holding all nodes sorted
	// by (label, document order).
	counts := make(map[labeltree.LabelID]int32)
	for i := int32(0); int(i) < n; i++ {
		counts[t.Label(i)]++
	}
	labels := make([]labeltree.LabelID, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	nodes, starts := make([]int32, n), make([]int32, n)
	var off int32
	for _, l := range labels {
		end := off + counts[l]
		idx.regions[l] = &labelRegions{label: l, nodes: nodes[off:off:end], starts: starts[off:off:end]}
		off = end
	}
	// Iterative DFS assigning preorder starts and subtree ends, appending
	// each node to its label's lists as it is reached: document order.
	type frame struct {
		node  int32
		child int // next child index to visit
	}
	var counter int32
	visit := func(v int32) {
		idx.start[v] = counter
		r := idx.regions[t.Label(v)]
		r.nodes = append(r.nodes, v)
		r.starts = append(r.starts, counter)
		counter++
	}
	stack := []frame{{node: 0}}
	visit(0)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.Children(f.node)
		if f.child < len(kids) {
			c := kids[f.child]
			f.child++
			visit(c)
			stack = append(stack, frame{node: c})
			continue
		}
		idx.end[f.node] = counter
		stack = stack[:len(stack)-1]
	}
	// Fill the child runs in (label, document) order: next[p] starts at
	// p's run and advances as p's children drop into it.
	next := make([]int32, n)
	for p := range next {
		next[p], _ = t.ChildBounds(int32(p))
	}
	for _, v := range nodes {
		if p := t.Parent(v); p >= 0 {
			idx.kids[next[p]] = v
			next[p]++
		}
	}
	return idx
}

// Tree returns the indexed document.
func (x *Index) Tree() *labeltree.Tree { return x.tree }

// Start returns the preorder rank of node i.
func (x *Index) Start(i int32) int32 { return x.start[i] }

// End returns the exclusive preorder bound of node i's subtree.
func (x *Index) End(i int32) int32 { return x.end[i] }

// Stream returns all nodes with the given label in document order. The
// slice is shared and must not be modified.
func (x *Index) Stream(label labeltree.LabelID) []int32 {
	r := x.regions[label]
	if r == nil {
		return nil
	}
	return r.nodes
}

// IsAncestor reports whether a is a proper ancestor of d.
func (x *Index) IsAncestor(a, d int32) bool {
	return x.start[a] < x.start[d] && x.start[d] < x.end[a]
}

// searchAbove returns the first position in starts holding a value > v.
// Manual binary search: the aligned starts arrays make this a probe over
// a dense int32 run with no closure or tree indirection.
func searchAbove(starts []int32, v int32) int {
	lo, hi := 0, len(starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchAtOrAbove returns the first position in starts holding a value >= v.
func searchAtOrAbove(starts []int32, v int32) int {
	lo, hi := 0, len(starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if starts[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// DescendantsByLabel returns the descendants of node i carrying label, in
// document order, as a shared subslice of the label's region list: a
// binary-searched range probe for starts in (start(i), end(i)). The
// result must not be modified; iteration allocates nothing.
func (x *Index) DescendantsByLabel(i int32, label labeltree.LabelID) []int32 {
	return x.descendants(x.regions[label], i)
}

func (x *Index) descendants(r *labelRegions, i int32) []int32 {
	if r == nil {
		return nil
	}
	lo := searchAbove(r.starts, x.start[i])
	hi := searchAtOrAbove(r.starts[lo:], x.end[i]) + lo
	return r.nodes[lo:hi]
}

// ChildrenByLabel returns the children of node i carrying label, in
// document order, as a shared subslice of i's run in the child index,
// which keeps i's children sorted by label: two binary searches over i's
// children alone. The result must not be modified; iteration allocates
// nothing.
func (x *Index) ChildrenByLabel(i int32, label labeltree.LabelID) []int32 {
	return x.children(x.regions[label], i)
}

func (x *Index) children(r *labelRegions, i int32) []int32 {
	if r == nil {
		return nil
	}
	from, to := x.tree.ChildBounds(i)
	kids := x.kids[from:to]
	lo, hi := 0, len(kids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x.tree.Label(kids[mid]) < r.label {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for hi = len(kids); end < hi; {
		mid := int(uint(end+hi) >> 1)
		if x.tree.Label(kids[mid]) <= r.label {
			end = mid + 1
		} else {
			hi = mid
		}
	}
	return kids[lo:end]
}

// probe returns the nodes of r's label in the given axis relation below
// v: its children or its descendants.
func (x *Index) probe(r *labelRegions, v int32, axis Axis) []int32 {
	if axis == Child {
		return x.children(r, v)
	}
	return x.descendants(r, v)
}

// roots returns the candidates for q's root: the document root alone when
// q is anchored there, else the root label's whole stream.
func (x *Index) roots(q Query) []int32 {
	label := q.Pattern.Label(0)
	if q.Axes[0] == Descendant {
		return x.Stream(label)
	}
	// The document root is always the first entry of its label's list.
	if r := x.regions[label]; r != nil && r.nodes[0] == 0 {
		return r.nodes[:1]
	}
	return nil
}

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
// Data access goes through an Index: a region (start, end, level)
// encoding from one DFS and an inverted label-region index — per label,
// the (start, end, level) region list in document order plus a
// level-partitioned view of the same list. Both structural axes then
// become binary-searched range probes that return shared subslices:
// descendant steps probe the label's full region list within
// (start, end), and child steps probe the label's level[v]+1 partition
// within the same bounds (a descendant exactly one level deeper is
// necessarily a child). Neither probe walks the subtree or allocates.
package twigjoin

import (
	"sort"

	"treelattice/internal/labeltree"
)

// Index is the access structure the join algorithms run on. Build one per
// document with NewIndex; it is immutable and safe for concurrent use.
type Index struct {
	tree  *labeltree.Tree
	start []int32 // preorder rank
	end   []int32 // start of last descendant + 1 (exclusive bound on subtree)
	level []int32

	regions map[labeltree.LabelID]*labelRegions
}

// labelRegions is one label's slice of the inverted region index: every
// node carrying the label, in document order, with the preorder starts
// copied alongside so range probes binary-search a dense array instead of
// chasing node ids back into the tree-wide start table; plus the same
// list partitioned by level for child-axis probes.
type labelRegions struct {
	nodes  []int32 // document order (ascending start)
	starts []int32 // starts[i] == Index.start[nodes[i]]

	levels    []int32 // distinct levels present, ascending
	levOff    []int32 // len(levels)+1 offsets into levNodes/levStarts
	levNodes  []int32 // nodes grouped by level, document order within a group
	levStarts []int32 // aligned starts for levNodes
}

// NewIndex region-encodes t and builds the label-region index.
func NewIndex(t *labeltree.Tree) *Index {
	n := t.Size()
	idx := &Index{
		tree:    t,
		start:   make([]int32, n),
		end:     make([]int32, n),
		level:   make([]int32, n),
		regions: make(map[labeltree.LabelID]*labelRegions),
	}
	// Iterative DFS assigning preorder starts and subtree ends.
	type frame struct {
		node  int32
		child int // next child index to visit
	}
	var counter int32
	stack := []frame{{node: 0}}
	idx.start[0] = counter
	counter++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		kids := t.Children(f.node)
		if f.child < len(kids) {
			c := kids[f.child]
			f.child++
			idx.start[c] = counter
			idx.level[c] = idx.level[f.node] + 1
			counter++
			stack = append(stack, frame{node: c})
			continue
		}
		idx.end[f.node] = counter
		stack = stack[:len(stack)-1]
	}
	for i := int32(0); int(i) < n; i++ {
		l := t.Label(i)
		r := idx.regions[l]
		if r == nil {
			r = &labelRegions{}
			idx.regions[l] = r
		}
		r.nodes = append(r.nodes, i)
	}
	for _, r := range idx.regions {
		// Document order within a region list = ascending start; node
		// indices are assigned parent-before-child but not in DFS order,
		// so sort, then build the aligned starts and the level partition.
		sort.Slice(r.nodes, func(a, b int) bool { return idx.start[r.nodes[a]] < idx.start[r.nodes[b]] })
		r.starts = make([]int32, len(r.nodes))
		for i, v := range r.nodes {
			r.starts[i] = idx.start[v]
		}
		idx.buildLevels(r)
	}
	return idx
}

// buildLevels groups r.nodes by level (stably, preserving document order
// within a level) and records the group offsets.
func (x *Index) buildLevels(r *labelRegions) {
	counts := make(map[int32]int32)
	for _, v := range r.nodes {
		counts[x.level[v]]++
	}
	r.levels = make([]int32, 0, len(counts))
	for l := range counts {
		r.levels = append(r.levels, l)
	}
	sort.Slice(r.levels, func(a, b int) bool { return r.levels[a] < r.levels[b] })
	r.levOff = make([]int32, len(r.levels)+1)
	at := make(map[int32]int32, len(r.levels))
	var off int32
	for i, l := range r.levels {
		r.levOff[i] = off
		at[l] = off
		off += counts[l]
	}
	r.levOff[len(r.levels)] = off
	r.levNodes = make([]int32, len(r.nodes))
	r.levStarts = make([]int32, len(r.nodes))
	for _, v := range r.nodes {
		p := at[x.level[v]]
		at[x.level[v]] = p + 1
		r.levNodes[p] = v
		r.levStarts[p] = x.start[v]
	}
}

// Tree returns the indexed document.
func (x *Index) Tree() *labeltree.Tree { return x.tree }

// Start returns the preorder rank of node i.
func (x *Index) Start(i int32) int32 { return x.start[i] }

// End returns the exclusive preorder bound of node i's subtree.
func (x *Index) End(i int32) int32 { return x.end[i] }

// Level returns the depth of node i (root = 0).
func (x *Index) Level(i int32) int32 { return x.level[i] }

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
// document order, as a shared subslice of the label's level-partitioned
// region list. A descendant of i at level(i)+1 is necessarily a child
// (depth grows by exactly one per edge), so the probe binary-searches the
// label's level(i)+1 partition for starts in (start(i), end(i)) instead
// of walking i's child list. The result must not be modified; iteration
// allocates nothing.
func (x *Index) ChildrenByLabel(i int32, label labeltree.LabelID) []int32 {
	return x.children(x.regions[label], i)
}

func (x *Index) children(r *labelRegions, i int32) []int32 {
	if r == nil {
		return nil
	}
	want := x.level[i] + 1
	k := searchAtOrAbove(r.levels, want)
	if k == len(r.levels) || r.levels[k] != want {
		return nil
	}
	starts := r.levStarts[r.levOff[k]:r.levOff[k+1]]
	lo := searchAbove(starts, x.start[i])
	hi := searchAtOrAbove(starts[lo:], x.end[i]) + lo
	return r.levNodes[int(r.levOff[k])+lo : int(r.levOff[k])+hi]
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

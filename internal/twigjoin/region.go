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
// Data access goes through an Index. Its build first numbers every
// node's subtree class, bottom-up: two nodes share a class exactly when
// their subtrees are equal as unordered labeled trees, and a class fixes
// its subtree's size. The counter memoizes by class, and the region
// (start, end) encoding needs only the start, since end = start + size.
// Beside the classes the Index holds an inverted label-region index —
// per label, the nodes carrying it and their preorder starts, in
// document order, one shared array when the tree is numbered in
// preorder, since each node's start is then its id — and a child index
// holding every node's children sorted stably by label, each node's run
// at the position the tree's own child array gives it, so the index
// reads its run bounds from the tree and stores no offsets. Descendant
// steps binary-search the label's starts for the parent's (start, end)
// window; child steps search only the parent's own children for the
// label. Both probes return shared subslices in document order; neither
// walks the tree or allocates. The build is a class pass (each node's
// label and sorted child classes, hashed and confirmed against the
// classes found so far), a start pass, and fill passes over the nodes in
// document and in (label, document) order: O(n log d + L log L) for n
// nodes, fan-out at most d and L distinct labels.
package twigjoin

import (
	"math/bits"
	"slices"

	"treelattice/internal/labeltree"
)

// Index is the access structure the join algorithms run on. Build one per
// document with NewIndex; it is immutable and safe for concurrent use.
type Index struct {
	tree  *labeltree.Tree
	start []int32 // preorder rank

	// class holds every node's subtree class: two nodes share a class
	// exactly when their subtrees are equal as unordered labeled trees.
	// size[c] is the node count of class c's subtrees, so node i's
	// region ends at start[i] + size[class[i]].
	class []int32
	size  []int32

	// kids holds every node's children, each node's run sorted stably by
	// label, so the children sharing a label sit together in document
	// order. Node i's run sits where the tree's holds its children:
	// kids[lo:hi] for lo, hi := tree.ChildBounds(i).
	kids []int32

	regions map[labeltree.LabelID]*labelRegions
}

// labelRegions is one label's slice of the inverted region index: every
// node carrying the label, in document order, with the preorder starts
// alongside so descendant probes binary-search a dense array instead of
// chasing node ids back into the tree-wide start table. On a tree
// numbered in preorder, as every parsed document is, a node's start is
// its id, and starts is nodes itself.
type labelRegions struct {
	label  labeltree.LabelID
	nodes  []int32 // document order (ascending start)
	starts []int32 // starts[i] == Index.start[nodes[i]]
}

// NewIndex classifies t's subtrees, region-encodes t and builds the
// label-region and child indexes.
func NewIndex(t *labeltree.Tree) *Index {
	n := t.Size()
	idx := &Index{
		tree:    t,
		start:   make([]int32, n),
		kids:    make([]int32, n-1),
		regions: make(map[labeltree.LabelID]*labelRegions),
	}
	var classLabel []labeltree.LabelID
	idx.class, idx.size, classLabel = classify(t)
	// Preorder starts, parents before children (a parent has the smaller
	// id): a node's first child starts right after it, and each later
	// child right after its elder sibling's subtree.
	preorder := true
	for v := int32(0); int(v) < n; v++ {
		s := idx.start[v] + 1
		for _, c := range t.Children(v) {
			idx.start[c] = s
			s += idx.size[idx.class[c]]
		}
		preorder = preorder && idx.start[v] == v
	}
	// Carve every label's lists from shared arrays, laid out by ascending
	// label, so that the arrays end up holding all nodes sorted by
	// (label, document order). A class fixes its nodes' label, so the
	// layout is worked out per class, and no per-node step consults a map.
	slot := make([]int32, len(idx.size)) // per class: nodes, then its label's slot
	for _, c := range idx.class {
		slot[c]++
	}
	counts := make(map[labeltree.LabelID]int32)
	for c, k := range slot {
		counts[classLabel[c]] += k
	}
	labels := make([]labeltree.LabelID, 0, len(counts))
	for l := range counts {
		labels = append(labels, l)
	}
	slices.Sort(labels)
	nodes := make([]int32, n)
	starts := nodes
	if !preorder {
		starts = make([]int32, n)
	}
	cursor := make([]int32, len(labels)) // per label slot: its next free position
	regions := make([]labelRegions, len(labels))
	slotOf := make(map[labeltree.LabelID]int32, len(labels))
	var off int32
	for k, l := range labels {
		end := off + counts[l]
		regions[k] = labelRegions{label: l, nodes: nodes[off:end:end], starts: starts[off:end:end]}
		idx.regions[l], slotOf[l], cursor[k] = &regions[k], int32(k), off
		off = end
	}
	for c, l := range classLabel {
		slot[c] = slotOf[l]
	}
	// Fill the lists in document order: node order itself on a preorder
	// tree, where starts is nodes and both writes store one value.
	var byStart []int32
	if !preorder {
		byStart = make([]int32, n)
		for v, s := range idx.start {
			byStart[s] = int32(v)
		}
	}
	for s := int32(0); int(s) < n; s++ {
		v := s
		if byStart != nil {
			v = byStart[s]
		}
		k := slot[idx.class[v]]
		nodes[cursor[k]], starts[cursor[k]] = v, s
		cursor[k]++
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

// classify numbers t's unordered subtree classes bottom-up. A node's
// class is fixed by its signature: its label and its children's classes,
// sorted. Children have larger ids than their parent, so a descending
// pass meets every child before its parent. The signatures of the classes
// found so far sit in one arena, each as (label, child count, sorted
// child classes), and an open-addressing table over their hashes finds a
// candidate class; a hit counts only when the arena holds the same
// signature, so two subtrees share a class exactly when they are equal.
// It returns every node's class, and every class's subtree size and
// label.
func classify(t *labeltree.Tree) (class, size []int32, label []labeltree.LabelID) {
	n := t.Size()
	class = make([]int32, n)
	guess := n/8 + 16
	size, label = make([]int32, 0, guess), make([]labeltree.LabelID, 0, guess)
	var (
		arena  = make([]int32, 0, 3*guess) // every class's signature
		at     = make([]int32, 0, guess)   // at[c]: where class c's signature starts in arena
		hashes = make([]uint64, 0, guess)  // hashes[c]: the hash of class c's signature
		sig    []int32                     // the signature being classified, arena layout
		// leaf caches the class of a leaf by its label, direct-mapped:
		// most nodes are leaves, and a leaf's class is its label's.
		leaf [256]struct{ label, class int32 }
	)
	for i := range leaf {
		leaf[i].class = -1
	}
	// slots holds class+1 per occupied slot, 0 when free, and stays at
	// most half full.
	slots := make([]int32, max(64, 1<<bits.Len(uint(guess))))
	for v := int32(n) - 1; v >= 0; v-- {
		l, kids := t.Label(v), t.Children(v)
		cached := &leaf[uint8(l)]
		if len(kids) == 0 && cached.class >= 0 && cached.label == l {
			class[v] = cached.class
			continue
		}
		sig = append(sig[:0], l, int32(len(kids)))
		for _, c := range kids {
			sig = append(sig, class[c])
		}
		if len(kids) > 1 {
			slices.Sort(sig[2:])
		}
		h := uint64(0)
		for _, w := range sig {
			h = (h ^ uint64(uint32(w))) * 0x9e3779b97f4a7c15
			h ^= h >> 29
		}
		mask := uint64(len(slots) - 1)
		i := h & mask
		for slots[i] != 0 {
			c := slots[i] - 1
			if hashes[c] == h && slices.Equal(arena[at[c]:at[c]+2+arena[at[c]+1]], sig) {
				break
			}
			i = (i + 1) & mask
		}
		c := slots[i] - 1
		if c < 0 {
			c = int32(len(size))
			s := int32(1)
			for _, k := range sig[2:] {
				s += size[k]
			}
			size, label = append(size, s), append(label, l)
			at, arena, hashes = append(at, int32(len(arena))), append(arena, sig...), append(hashes, h)
			slots[i] = c + 1
			if 2*len(size) > len(slots) {
				slots = make([]int32, 2*len(slots))
				mask = uint64(len(slots) - 1)
				for c, h := range hashes {
					i := h & mask
					for slots[i] != 0 {
						i = (i + 1) & mask
					}
					slots[i] = int32(c) + 1
				}
			}
		}
		class[v] = c
		if len(kids) == 0 {
			*cached = struct{ label, class int32 }{l, c}
		}
	}
	// The index keeps size: drop the capacity guess beyond it.
	return class, slices.Clone(size), label
}

// Tree returns the indexed document.
func (x *Index) Tree() *labeltree.Tree { return x.tree }

// Start returns the preorder rank of node i.
func (x *Index) Start(i int32) int32 { return x.start[i] }

// End returns the exclusive preorder bound of node i's subtree.
func (x *Index) End(i int32) int32 { return x.start[i] + x.size[x.class[i]] }

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
	return x.start[a] < x.start[d] && x.start[d] < x.End(a)
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
	hi := searchAtOrAbove(r.starts[lo:], x.End(i)) + lo
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

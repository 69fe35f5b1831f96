package labeltree

import (
	"fmt"
	"math"
)

// Tree is a large rooted node-labeled data tree held in flat, pointer-free
// arrays: per node a label, a parent and an offset, plus one child array
// that lists every node's children as one run, in document order. Node
// 0 is the root. Trees are immutable once built; construct them with a
// Builder, via xmlparse, or with ReadTree.
type Tree struct {
	dict   *Dict
	labels []LabelID
	parent []int32 // parent[i] < i; parent[0] == -1
	// kids holds every node's children, grouped by parent in node order;
	// node i's run is kids[kidOff[i]:kidOff[i+1]].
	kids   []int32
	kidOff []int32
}

// Builder incrementally constructs a Tree. Nodes must be added parents
// before children (the natural order for both streaming XML parses and
// top-down generators).
type Builder struct {
	dict   *Dict
	labels []LabelID
	parent []int32
}

// NewBuilder returns a Builder that interns labels into dict.
func NewBuilder(dict *Dict) *Builder {
	return &Builder{dict: dict}
}

// AddRoot adds the root node. It must be the first node added.
func (b *Builder) AddRoot(label string) int32 {
	if len(b.labels) != 0 {
		panic("labeltree: AddRoot on non-empty builder")
	}
	b.labels = append(b.labels, b.dict.Intern(label))
	b.parent = append(b.parent, -1)
	return 0
}

// AddChild adds a node labeled label under parent and returns its index.
func (b *Builder) AddChild(parent int32, label string) int32 {
	return b.AddChildID(parent, b.dict.Intern(label))
}

// AddChildID is AddChild for an already-interned label.
func (b *Builder) AddChildID(parent int32, label LabelID) int32 {
	if parent < 0 || int(parent) >= len(b.labels) {
		panic(fmt.Sprintf("labeltree: AddChild parent %d out of range", parent))
	}
	id := int32(len(b.labels))
	b.labels = append(b.labels, label)
	b.parent = append(b.parent, parent)
	return id
}

// Len reports the number of nodes added so far.
func (b *Builder) Len() int { return len(b.labels) }

// Build finalizes the tree. The Builder must not be reused afterwards.
func (b *Builder) Build() *Tree {
	return newTree(b.dict, b.labels, b.parent)
}

// newTree lays out the child runs of the tree that labels and parent
// describe, and takes ownership of both arrays.
func newTree(dict *Dict, labels []LabelID, parent []int32) *Tree {
	n := len(labels)
	t := &Tree{dict: dict, labels: labels, parent: parent,
		kids: make([]int32, max(n-1, 0)), kidOff: make([]int32, n+1)}
	// kidOff[p+1] first counts p's children, then, summed, becomes the
	// offset of p's run, and advances to the run's end as the run fills.
	for i := 1; i < n; i++ {
		t.kidOff[parent[i]+2]++
	}
	for i := 2; i <= n; i++ {
		t.kidOff[i] += t.kidOff[i-1]
	}
	for i := 1; i < n; i++ {
		p := parent[i]
		t.kids[t.kidOff[p+1]] = int32(i)
		t.kidOff[p+1]++
	}
	return t
}

// Dict returns the label dictionary the tree was built against.
func (t *Tree) Dict() *Dict { return t.dict }

// Size reports the number of nodes.
func (t *Tree) Size() int { return len(t.labels) }

// Label returns the label ID of node i.
func (t *Tree) Label(i int32) LabelID { return t.labels[i] }

// LabelName returns the label string of node i.
func (t *Tree) LabelName(i int32) string { return t.dict.Name(t.labels[i]) }

// Parent returns the parent index of node i, or -1 for the root.
func (t *Tree) Parent(i int32) int32 { return t.parent[i] }

// Children returns the child indices of node i in document order. The
// slice is shared with the tree and must not be modified; its capacity is
// its length, so an append copies it.
func (t *Tree) Children(i int32) []int32 {
	lo, hi := t.kidOff[i], t.kidOff[i+1]
	return t.kids[lo:hi:hi]
}

// ChildBounds returns where node i's run sits in the tree's child array:
// Children(i) covers positions [lo, hi). An array indexed the same way
// can hold a per-child value beside the tree's own runs.
func (t *Tree) ChildBounds(i int32) (lo, hi int32) { return t.kidOff[i], t.kidOff[i+1] }

// LabelCount reports how many nodes carry label, by a scan of the tree.
func (t *Tree) LabelCount(label LabelID) int {
	n := 0
	for _, l := range t.labels {
		if l == label {
			n++
		}
	}
	return n
}

// DistinctLabels returns the set of labels that occur in the tree.
func (t *Tree) DistinctLabels() []LabelID {
	seen := make(map[LabelID]bool)
	var out []LabelID
	for _, l := range t.labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// ChildLabelPairs returns, for each parent label, the set of labels that
// occur as its children anywhere in the tree. Candidate generation during
// mining uses this to prune extensions that cannot occur.
func (t *Tree) ChildLabelPairs() map[LabelID][]LabelID {
	sets := make(map[LabelID]map[LabelID]bool)
	for i := 1; i < len(t.labels); i++ {
		p := t.labels[t.parent[i]]
		if sets[p] == nil {
			sets[p] = make(map[LabelID]bool)
		}
		sets[p][t.labels[i]] = true
	}
	out := make(map[LabelID][]LabelID, len(sets))
	for p, s := range sets {
		for l := range s {
			out[p] = append(out[p], l)
		}
	}
	return out
}

// Stats summarizes structural characteristics of a tree (Table 1 of the
// paper reports elements and file size; depth and fanout aid validation).
type Stats struct {
	Nodes          int
	Labels         int
	MaxDepth       int
	MaxFanout      int
	MeanFanout     float64 // over internal nodes
	FanoutVariance float64 // over internal nodes
}

// Stats computes structural statistics in one pass.
func (t *Tree) Stats() Stats {
	s := Stats{Nodes: t.Size(), Labels: len(t.DistinctLabels())}
	depth := make([]int32, t.Size())
	var sum, sumsq float64
	internal := 0
	for i := int32(0); int(i) < t.Size(); i++ {
		if p := t.parent[i]; p >= 0 {
			depth[i] = depth[p] + 1
			if int(depth[i]) > s.MaxDepth {
				s.MaxDepth = int(depth[i])
			}
		}
		if n := len(t.Children(i)); n > 0 {
			internal++
			sum += float64(n)
			sumsq += float64(n) * float64(n)
			if n > s.MaxFanout {
				s.MaxFanout = n
			}
		}
	}
	if internal > 0 {
		s.MeanFanout = sum / float64(internal)
		s.FanoutVariance = math.Max(0, sumsq/float64(internal)-s.MeanFanout*s.MeanFanout)
	}
	return s
}

package labeltree

import (
	"slices"
	"testing"
)

// buildSample builds the paper's Figure 1(a) document:
// computer(laptops(laptop(brand,price), laptop(brand,price)), desktops).
func buildSample(t *testing.T) (*Tree, *Dict) {
	t.Helper()
	d := NewDict()
	b := NewBuilder(d)
	root := b.AddRoot("computer")
	laptops := b.AddChild(root, "laptops")
	b.AddChild(root, "desktops")
	l1 := b.AddChild(laptops, "laptop")
	l2 := b.AddChild(laptops, "laptop")
	b.AddChild(l1, "brand")
	b.AddChild(l1, "price")
	b.AddChild(l2, "brand")
	b.AddChild(l2, "price")
	return b.Build(), d
}

func TestBuilderShape(t *testing.T) {
	tr, d := buildSample(t)
	if tr.Size() != 9 {
		t.Fatalf("Size = %d, want 9", tr.Size())
	}
	if tr.LabelName(0) != "computer" {
		t.Fatalf("root label = %q", tr.LabelName(0))
	}
	if tr.Parent(0) != -1 {
		t.Fatalf("root parent = %d", tr.Parent(0))
	}
	laptops, _ := d.Lookup("laptops")
	kids := tr.Children(0)
	if len(kids) != 2 || tr.Label(kids[0]) != laptops {
		t.Fatalf("root children = %v", kids)
	}
}

func TestLabelCount(t *testing.T) {
	tr, d := buildSample(t)
	laptop, _ := d.Lookup("laptop")
	if got := tr.LabelCount(laptop); got != 2 {
		t.Fatalf("laptop count = %d, want 2", got)
	}
	brand, _ := d.Lookup("brand")
	if tr.LabelCount(brand) != 2 {
		t.Fatalf("brand count = %d", tr.LabelCount(brand))
	}
	if tr.LabelCount(LabelID(100)) != 0 {
		t.Fatal("unknown label should count 0")
	}
}

func TestDistinctLabels(t *testing.T) {
	tr, _ := buildSample(t)
	if got := len(tr.DistinctLabels()); got != 6 {
		t.Fatalf("DistinctLabels = %d, want 6", got)
	}
}

func TestChildLabelPairs(t *testing.T) {
	tr, d := buildSample(t)
	pairs := tr.ChildLabelPairs()
	laptop, _ := d.Lookup("laptop")
	brand, _ := d.Lookup("brand")
	price, _ := d.Lookup("price")
	got := pairs[laptop]
	if len(got) != 2 {
		t.Fatalf("children of laptop = %v", got)
	}
	seen := map[LabelID]bool{got[0]: true, got[1]: true}
	if !seen[brand] || !seen[price] {
		t.Fatalf("children of laptop = %v, want {brand, price}", got)
	}
}

func TestTreeStats(t *testing.T) {
	tr, _ := buildSample(t)
	s := tr.Stats()
	if s.Nodes != 9 || s.Labels != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxDepth != 3 {
		t.Fatalf("MaxDepth = %d, want 3", s.MaxDepth)
	}
	if s.MaxFanout != 2 {
		t.Fatalf("MaxFanout = %d, want 2", s.MaxFanout)
	}
	if s.MeanFanout <= 0 || s.FanoutVariance < 0 {
		t.Fatalf("fanout stats = %+v", s)
	}
}

func TestBuilderPanics(t *testing.T) {
	d := NewDict()
	b := NewBuilder(d)
	b.AddRoot("a")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second AddRoot did not panic")
			}
		}()
		b.AddRoot("b")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddChild with bad parent did not panic")
			}
		}()
		b.AddChild(5, "c")
	}()
}

func TestSingleNodeTree(t *testing.T) {
	d := NewDict()
	b := NewBuilder(d)
	b.AddRoot("only")
	tr := b.Build()
	if tr.Size() != 1 || len(tr.Children(0)) != 0 {
		t.Fatalf("single-node tree malformed: size=%d children=%v", tr.Size(), tr.Children(0))
	}
	s := tr.Stats()
	if s.MaxDepth != 0 || s.MeanFanout != 0 {
		t.Fatalf("single-node stats = %+v", s)
	}
}

// TestChildrenAppendCopies: every node's children sit in one shared
// array, and Children caps each run at its length, so appending to one
// node's children copies them instead of writing over the next node's.
func TestChildrenAppendCopies(t *testing.T) {
	tr, _ := buildSample(t)
	before := make([][]int32, tr.Size())
	for i := range before {
		before[i] = slices.Clone(tr.Children(int32(i)))
	}
	for i := int32(0); int(i) < tr.Size(); i++ {
		grown := append(tr.Children(i), 99)
		if got := grown[len(grown)-1]; got != 99 {
			t.Fatalf("node %d: appended %d, want 99", i, got)
		}
		for j := range before {
			if got := tr.Children(int32(j)); !slices.Equal(got, before[j]) {
				t.Fatalf("append to node %d's children changed node %d's: %v, want %v", i, j, got, before[j])
			}
		}
	}
}

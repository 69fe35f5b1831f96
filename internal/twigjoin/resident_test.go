package twigjoin

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
)

// TestResidentBytesPerNode bounds what a served document keeps on the
// heap: each profile's 5,000-element document as a corpus loads it, by
// ReadTree, and then with its Index. Per trial it loads several copies
// and reads the live heap after a collection before and after; the
// least of a few trials stands, so a collection that ran late or a
// stray allocation elsewhere cannot fail it. The flat tree holds four
// 32-bit words per node (label, parent, child entry, offset) and the
// index five more (start, end, stream entry and its start, child entry).
func TestResidentBytesPerNode(t *testing.T) {
	const (
		copies      = 8
		trials      = 4
		treeBound   = 20.0 // bytes per node, the tree alone
		servedBound = 45.0 // bytes per node, the tree and its index
	)
	for _, profile := range datagen.AllProfiles() {
		dict := labeltree.NewDict()
		tr, err := datagen.Generate(datagen.Config{Profile: profile, Scale: 5000, Seed: 1}, dict)
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if _, err := labeltree.WriteTree(&enc, tr); err != nil {
			t.Fatal(err)
		}
		nodes := float64(copies * tr.Size())
		treeB, servedB := math.Inf(1), math.Inf(1)
		for range trials {
			trees := make([]*labeltree.Tree, copies)
			indexes := make([]*Index, copies)
			base := liveHeap()
			for i := range trees {
				if trees[i], err = labeltree.ReadTree(bytes.NewReader(enc.Bytes()), dict); err != nil {
					t.Fatal(err)
				}
			}
			loaded := liveHeap()
			for i, tr := range trees {
				indexes[i] = NewIndex(tr)
			}
			served := liveHeap()
			runtime.KeepAlive(trees)
			runtime.KeepAlive(indexes)
			treeB = min(treeB, float64(loaded-base)/nodes)
			servedB = min(servedB, float64(served-base)/nodes)
		}
		t.Logf("%s (%d nodes): %.1f B per node for the tree, %.1f with its index", profile, tr.Size(), treeB, servedB)
		if treeB > treeBound {
			t.Errorf("%s: the tree holds %.1f B per node, over %.0f", profile, treeB, treeBound)
		}
		if servedB > servedBound {
			t.Errorf("%s: the tree and its index hold %.1f B per node, over %.0f", profile, servedB, servedBound)
		}
	}
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

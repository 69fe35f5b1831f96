package labeltree_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// TestQuickKeyInvariantUnderRenumbering checks that canonical keys are
// invariant under isomorphic renumbering of pattern nodes.
func TestQuickKeyInvariantUnderRenumbering(t *testing.T) {
	dict, alphabet := treetest.Alphabet(4)
	_ = dict
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeRaw%10)
		p := treetest.RandomPattern(rng, size, alphabet)
		q := treetest.ShufflePattern(rng, p)
		return p.Key() == q.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddChildRemoveLeafRoundTrip checks that attaching a child and
// removing it restores the original pattern identity.
func TestQuickAddChildRemoveLeafRoundTrip(t *testing.T) {
	_, alphabet := treetest.Alphabet(4)
	f := func(seed int64, sizeRaw, atRaw, labRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeRaw%8)
		p := treetest.RandomPattern(rng, size, alphabet)
		at := int32(int(atRaw) % size)
		q := p.AddChild(at, alphabet[int(labRaw)%len(alphabet)])
		back := q.RemoveLeaf(int32(size)) // the appended node
		return back.Key() == p.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStringParseRoundTrip checks parse/format stability on random
// patterns.
func TestQuickStringParseRoundTrip(t *testing.T) {
	dict, alphabet := treetest.Alphabet(5)
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeRaw%9)
		p := treetest.RandomPattern(rng, size, alphabet)
		q, err := labeltree.ParsePattern(p.String(dict), dict)
		return err == nil && q.Key() == p.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeavesRemovable checks that every reported leaf can actually be
// removed and yields a pattern one node smaller.
func TestQuickLeavesRemovable(t *testing.T) {
	_, alphabet := treetest.Alphabet(3)
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + int(sizeRaw%9)
		p := treetest.RandomPattern(rng, size, alphabet)
		for _, leaf := range p.Leaves() {
			q := p.RemoveLeaf(leaf)
			if q.Size() != size-1 {
				return false
			}
		}
		return len(p.Leaves()) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPreorderIsPermutation checks Preorder visits each node once.
func TestQuickPreorderIsPermutation(t *testing.T) {
	_, alphabet := treetest.Alphabet(3)
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + int(sizeRaw%12)
		p := treetest.RandomPattern(rng, size, alphabet)
		seen := make(map[int32]bool)
		for _, n := range p.Preorder() {
			if seen[n] {
				return false
			}
			seen[n] = true
		}
		return len(seen) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeafSplicerMatchesPatterns checks every single and pairwise
// leaf removal LeafSplicer derives against building the smaller pattern
// and encoding it, over random patterns under random renumbering.
func TestQuickLeafSplicerMatchesPatterns(t *testing.T) {
	_, alphabet := treetest.Alphabet(3)
	var ls labeltree.LeafSplicer
	f := func(seed int64, sizeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + int(sizeRaw%11)
		key := treetest.ShufflePattern(rng, treetest.RandomPattern(rng, size, alphabet)).Key()
		p, err := labeltree.DecodeKey(key)
		if err != nil {
			t.Fatal(err)
		}
		ls.Reset(key)
		leaves := p.Leaves()
		for a, u := range leaves {
			if ls.RemoveKey(u) != p.RemoveLeaf(u).Key() {
				t.Logf("seed %d: minus node %d differs", seed, u)
				return false
			}
			for _, v := range leaves[a+1:] {
				if size < 3 {
					break
				}
				keep := make([]int32, 0, size-2)
				for n := int32(0); int(n) < size; n++ {
					if n != u && n != v {
						keep = append(keep, n)
					}
				}
				if ls.RemoveTwoKey(u, v) != p.Subpattern(keep).Key() || ls.RemoveTwoKey(v, u) != p.Subpattern(keep).Key() {
					t.Logf("seed %d: minus nodes %d, %d differs", seed, u, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

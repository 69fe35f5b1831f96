package estimate

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// referenceDecompositions is the Pattern-based enumeration the engine ran
// before it recursed over keys, kept as the slow reference for the
// spliced one: build T1, T2 and the common part as Patterns for every
// leaf pair, encode all three, and sort by signature.
func referenceDecompositions(q labeltree.Pattern) []decomposition {
	leaves := q.Leaves()
	var out []decomposition
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			lo, hi := q.RemoveLeaf(leaves[i]).Key(), q.RemoveLeaf(leaves[j]).Key()
			if hi < lo {
				lo, hi = hi, lo
			}
			keep := make([]int32, 0, q.Size()-2)
			for n := int32(0); int(n) < q.Size(); n++ {
				if n != leaves[i] && n != leaves[j] {
					keep = append(keep, n)
				}
			}
			out = append(out, decomposition{lo: lo, hi: hi, common: q.Subpattern(keep).Key()})
		}
	}
	sort.Slice(out, func(a, b int) bool { return compareDecompositions(out[a], out[b]) < 0 })
	return out
}

// TestDecomposerMatchesReference: the spliced enumeration yields the
// reference's signature sequence, in order, for random patterns of sizes
// 3–11 under shuffled numbering, and first picks its first element. The
// order is what the non-voting estimator, δ-pruning and the voting sum
// depend on.
func TestDecomposerMatchesReference(t *testing.T) {
	_, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(71))
	var dec decomposer
	for trial := 0; trial < 600; trial++ {
		q := treetest.ShufflePattern(rng, treetest.RandomPattern(rng, 3+rng.Intn(9), alphabet))
		want := referenceDecompositions(q)
		got := dec.appendAll(nil, q.Key())
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (size %d): spliced decompositions differ from the reference:\n got %q\nwant %q",
				trial, q.Size(), got, want)
		}
		if first := dec.first(q.Key()); first != want[0] {
			t.Fatalf("trial %d (size %d): first = %q, want %q", trial, q.Size(), first, want[0])
		}
	}
}

package twigjoin

import (
	"math/rand"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// scanCount evaluates q without the region index: candidate lists come
// from linear child-list walks (child axis) and full-subtree DFS walks
// (descendant axis and the root stream) — the access pattern the
// label-region index replaces. Used as the BenchmarkTwigExecIndexed
// baseline.
func scanCount(tr *labeltree.Tree, q Query) int64 {
	p := q.Pattern
	assigned := make([]int32, p.Size())
	used := make(map[int32]bool, p.Size())
	var matches int64
	var subtree func(n int32, label labeltree.LabelID, out []int32) []int32
	subtree = func(n int32, label labeltree.LabelID, out []int32) []int32 {
		for _, c := range tr.Children(n) {
			if tr.Label(c) == label {
				out = append(out, c)
			}
			out = subtree(c, label, out)
		}
		return out
	}
	var rec func(i int32)
	rec = func(i int32) {
		if int(i) == p.Size() {
			matches++
			return
		}
		label := p.Label(i)
		var candidates []int32
		if par := p.Parent(i); par < 0 {
			if q.Axes[0] == Child {
				if tr.Label(0) == label {
					candidates = []int32{0}
				}
			} else {
				for n := int32(0); int(n) < tr.Size(); n++ {
					if tr.Label(n) == label {
						candidates = append(candidates, n)
					}
				}
			}
		} else {
			pv := assigned[par]
			if q.Axes[i] == Child {
				for _, c := range tr.Children(pv) {
					if tr.Label(c) == label {
						candidates = append(candidates, c)
					}
				}
			} else {
				candidates = subtree(pv, label, nil)
			}
		}
		for _, v := range candidates {
			if used[v] {
				continue
			}
			used[v] = true
			assigned[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return matches
}

// BenchmarkTwigExecIndexed compares enumeration over the region index
// against the unindexed tree-walk scan on the same query and document.
func BenchmarkTwigExecIndexed(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	dict, labels := treetest.Alphabet(6)
	tr := treetest.RandomTree(rng, 20000, labels, dict)
	q := MustParseQuery("//l0(l1,//l2(l3))", dict)
	x := NewIndex(tr)
	want := Enumerate(x, q, nil, keepGoing).Matches
	if got := scanCount(tr, q); got != want {
		b.Fatalf("scan count %d != indexed count %d", got, want)
	}

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Enumerate(x, q, nil, keepGoing).Matches != want {
				b.Fatal("count mismatch")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if scanCount(tr, q) != want {
				b.Fatal("count mismatch")
			}
		}
	})
}

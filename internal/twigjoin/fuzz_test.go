package twigjoin

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"treelattice/internal/treetest"
)

// FuzzCount checks the counter against enumeration on random trees and
// queries over a three-label alphabet (so same-label siblings are common),
// with fuzzed descendant edges, an optionally anchored root and a random
// valid bind order; against brute force on small trees; and, on child-only
// queries, against the reference DP.
func FuzzCount(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(4), uint8(0), false)
	f.Add(int64(2), uint8(60), uint8(6), uint8(0xff), false)
	f.Add(int64(3), uint8(25), uint8(5), uint8(0x0a), true)
	f.Add(int64(4), uint8(70), uint8(3), uint8(0x02), false)
	f.Fuzz(func(t *testing.T, seed int64, treeSize, querySize, descMask uint8, anchored bool) {
		rng := rand.New(rand.NewSource(seed))
		dict, alphabet := treetest.Alphabet(3)
		tr := treetest.RandomTree(rng, 1+int(treeSize)%80, alphabet, dict)
		p := treetest.RandomPattern(rng, 1+int(querySize)%6, alphabet)
		axes := make([]Axis, p.Size())
		if !anchored {
			axes[0] = Descendant
		}
		for i := 1; i < len(axes); i++ {
			if descMask&(1<<(i-1)) != 0 {
				axes[i] = Descendant
			}
		}
		q := MustQuery(p, axes)
		x := NewIndex(tr)

		// A random topological bind order.
		order := []int32{0}
		ready := append([]int32(nil), p.Children(0)...)
		for len(ready) > 0 {
			k := rng.Intn(len(ready))
			n := ready[k]
			ready = append(ready[:k], ready[k+1:]...)
			order = append(order, n)
			ready = append(ready, p.Children(n)...)
		}

		ctx := context.Background()
		cap := int64(1 << 21)
		enum, err := EnumerateContext(ctx, x, q, order, &cap, keepGoing)
		if errors.Is(err, ErrNodeBudget) {
			t.Skip("match space too large to enumerate")
		}
		got, err := CountContext(ctx, x, q, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Matches != enum.Matches {
			t.Fatalf("%s order %v: counter %d, enumeration %d", q.String(dict), order, got.Matches, enum.Matches)
		}
		if tr.Size() <= 30 {
			if brute := bruteDescendant(x, q); brute != got.Matches {
				t.Fatalf("%s: counter %d, brute force %d", q.String(dict), got.Matches, brute)
			}
		}
		if !anchored && q.ChildOnly() {
			if ref := refCount(tr, p); ref != got.Matches {
				t.Fatalf("%s: counter %d, reference DP %d", q.String(dict), got.Matches, ref)
			}
		}
	})
}

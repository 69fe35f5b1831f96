package workload

import (
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/twigjoin"
)

func sampleTree(t *testing.T) *labeltree.Tree {
	t.Helper()
	dict := labeltree.NewDict()
	tr, err := datagen.Generate(datagen.Config{Profile: datagen.NASA, Scale: 3000, Seed: 9}, dict)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPositiveWorkload(t *testing.T) {
	tr := sampleTree(t)
	qs, err := Positive(tr, Options{Sizes: []int{4, 5, 6}, PerSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx := twigjoin.NewIndex(tr)
	for _, size := range []int{4, 5, 6} {
		if len(qs[size]) < 10 {
			t.Fatalf("size %d: only %d queries", size, len(qs[size]))
		}
		seen := make(map[labeltree.Key]bool)
		for _, q := range qs[size] {
			if q.Pattern.Size() != size {
				t.Fatalf("size %d workload contains a %d-node query", size, q.Pattern.Size())
			}
			if q.TrueCount <= 0 {
				t.Fatalf("positive query with count %d", q.TrueCount)
			}
			if got := enumCount(idx, q.Pattern); got != q.TrueCount {
				t.Fatalf("recorded count %d != recomputed %d", q.TrueCount, got)
			}
			key := q.Pattern.Key()
			if seen[key] {
				t.Fatal("duplicate query in workload")
			}
			seen[key] = true
		}
	}
}

func TestPositiveDeterministic(t *testing.T) {
	tr := sampleTree(t)
	a, err := Positive(tr, Options{Sizes: []int{4}, PerSize: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Positive(tr, Options{Sizes: []int{4}, PerSize: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a[4]) != len(b[4]) {
		t.Fatal("workload size not deterministic")
	}
	for i := range a[4] {
		if a[4][i].Pattern.Key() != b[4][i].Pattern.Key() {
			t.Fatal("workload not deterministic")
		}
	}
}

func TestPositiveValidation(t *testing.T) {
	tr := sampleTree(t)
	if _, err := Positive(tr, Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := Positive(tr, Options{Sizes: []int{0}, PerSize: 5}); err == nil {
		t.Fatal("size 0 accepted")
	}
}

func TestNegativeWorkload(t *testing.T) {
	tr := sampleTree(t)
	pos, err := Positive(tr, Options{Sizes: []int{4, 5}, PerSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := Negative(tr, pos, Options{Sizes: []int{4, 5}, PerSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	idx := twigjoin.NewIndex(tr)
	total := 0
	for size, qs := range neg {
		for _, q := range qs {
			total++
			if q.TrueCount != 0 {
				t.Fatalf("negative query with recorded count %d", q.TrueCount)
			}
			if got := enumCount(idx, q.Pattern); got != 0 {
				t.Fatalf("size %d: negative query matches %d times", size, got)
			}
		}
	}
	if total < 20 {
		t.Fatalf("only %d negative queries generated", total)
	}
}

func TestSingleNodeWorkload(t *testing.T) {
	tr := sampleTree(t)
	qs, err := Positive(tr, Options{Sizes: []int{1}, PerSize: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs[1] {
		if q.Pattern.Size() != 1 {
			t.Fatal("size-1 workload has larger query")
		}
	}
}

func TestOversizeRequestsReturnFewer(t *testing.T) {
	// A tiny document cannot produce queries larger than itself; the
	// generator degrades gracefully instead of spinning.
	dict := labeltree.NewDict()
	b := labeltree.NewBuilder(dict)
	root := b.AddRoot("a")
	b.AddChild(root, "b")
	tr := b.Build()
	qs, err := Positive(tr, Options{Sizes: []int{5}, PerSize: 3, Seed: 1, MaxAttempts: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[5]) != 0 {
		t.Fatalf("impossible size produced %d queries", len(qs[5]))
	}
}

func TestFromLattice(t *testing.T) {
	tr := sampleTree(t)
	sum, err := mine.Mine(tr, 4, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	miner := func(level int) ([]labeltree.Pattern, []int64, error) {
		var ps []labeltree.Pattern
		var cs []int64
		for _, e := range sum.Entries(level) {
			ps = append(ps, e.Pattern)
			cs = append(cs, e.Count)
		}
		return ps, cs, nil
	}
	qs, err := FromLattice(tr, miner, Options{Sizes: []int{3, 4}, PerSize: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx := twigjoin.NewIndex(tr)
	for _, size := range []int{3, 4} {
		if len(qs[size]) == 0 {
			t.Fatalf("size %d: empty", size)
		}
		for _, q := range qs[size] {
			if q.Pattern.Size() != size || q.TrueCount <= 0 {
				t.Fatalf("bad query %+v", q)
			}
			if enumCount(idx, q.Pattern) != q.TrueCount {
				t.Fatal("recorded count wrong")
			}
		}
	}
	// Deterministic for a fixed seed.
	qs2, err := FromLattice(tr, miner, Options{Sizes: []int{3, 4}, PerSize: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{3, 4} {
		for i := range qs[size] {
			if qs[size][i].Pattern.Key() != qs2[size][i].Pattern.Key() {
				t.Fatal("FromLattice not deterministic")
			}
		}
	}
	if _, err := FromLattice(tr, miner, Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
}

// enumCount counts p's matches by enumeration, independently of the
// counter the code under test uses.
func enumCount(x *twigjoin.Index, p labeltree.Pattern) int64 {
	return twigjoin.Enumerate(x, twigjoin.MustQuery(p, nil), nil, func(twigjoin.Match) bool { return true }).Matches
}

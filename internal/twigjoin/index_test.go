package twigjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// TestChildrenByLabelAgainstWalk checks the child index's probe against a
// direct walk of the child list, for every node and label of random
// trees, of a node with thousands of children under interleaved labels,
// and of one tree per datagen profile.
func TestChildrenByLabelAgainstWalk(t *testing.T) {
	type tc struct {
		name string
		tr   *labeltree.Tree
	}
	var cases []tc
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict, labels := treetest.Alphabet(4)
		cases = append(cases, tc{fmt.Sprintf("random seed %d", seed), treetest.RandomTree(rng, 200, labels, dict)})
	}
	rng := rand.New(rand.NewSource(9))
	dict, labels := treetest.Alphabet(4)
	b := labeltree.NewBuilder(dict)
	b.AddRoot(dict.Name(labels[3]))
	for i := 0; i < 6000; i++ {
		c := b.AddChildID(0, labels[rng.Intn(3)])
		if i%100 == 0 {
			b.AddChildID(c, labels[rng.Intn(4)])
		}
	}
	cases = append(cases, tc{"wide node", b.Build()})
	for _, profile := range datagen.AllProfiles() {
		tr, err := datagen.Generate(datagen.Config{Profile: profile, Scale: 5000, Seed: 5}, labeltree.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{string(profile), tr})
	}
	for _, c := range cases {
		tr := c.tr
		x := NewIndex(tr)
		probed := append(tr.DistinctLabels(), -1) // -1 labels no node
		for i := int32(0); int(i) < tr.Size(); i++ {
			for _, l := range probed {
				var want []int32
				for _, k := range tr.Children(i) {
					if tr.Label(k) == l {
						want = append(want, k)
					}
				}
				if got := x.ChildrenByLabel(i, l); !slices.Equal(got, want) {
					t.Fatalf("%s node %d label %d: got %v want %v", c.name, i, l, got, want)
				}
			}
		}
	}
}

// TestIndexBuildWideNode: the build does not grow with the square of a
// node's fan-out. One root holding 200,000 children under two alternating
// labels indexes in well under a second, and each label's children come
// back complete and in document order.
func TestIndexBuildWideNode(t *testing.T) {
	const n = 200_000
	dict, labels := treetest.Alphabet(2)
	b := labeltree.NewBuilder(dict)
	b.AddRoot(dict.Name(labels[0]))
	for i := 0; i < n; i++ {
		b.AddChildID(0, labels[i%2])
	}
	tr := b.Build()
	begin := time.Now()
	x := NewIndex(tr)
	if took := time.Since(begin); took > time.Second {
		t.Fatalf("index over %d children took %v", n, took)
	}
	for k, l := range labels {
		got := x.ChildrenByLabel(0, l)
		if len(got) != n/2 {
			t.Fatalf("label %d: %d children, want %d", l, len(got), n/2)
		}
		for j, v := range got {
			if v != int32(1+k+2*j) {
				t.Fatalf("label %d: child %d is node %d, want %d", l, j, v, 1+k+2*j)
			}
		}
	}
}

// TestDescendantsByLabelAgainstWalk checks the range probe against a
// subtree walk.
func TestDescendantsByLabelAgainstWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict, labels := treetest.Alphabet(3)
	tr := treetest.RandomTree(rng, 300, labels, dict)
	x := NewIndex(tr)
	for i := int32(0); int(i) < tr.Size(); i++ {
		for _, l := range labels {
			var want []int32
			var walk func(n int32)
			walk = func(n int32) {
				for _, c := range tr.Children(n) {
					if tr.Label(c) == l {
						want = append(want, c)
					}
					walk(c)
				}
			}
			walk(i)
			got := x.DescendantsByLabel(i, l)
			if len(got) != len(want) {
				t.Fatalf("node %d label %d: got %d want %d", i, l, len(got), len(want))
			}
			// The probe returns document order; the walk returns DFS
			// order, which is the same thing.
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("node %d label %d: got %v want %v", i, l, got, want)
				}
			}
		}
	}
}

// TestExecZeroAlloc gates the executor fast paths: index probes and a
// prepared Counter, on child and descendant queries without same-label
// siblings, allocate nothing; neither does enumeration over a warmed
// scratch pool, which is checked only without -race (see raceEnabled).
func TestExecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dict, labels := treetest.Alphabet(3)
	tr := treetest.RandomTree(rng, 500, labels, dict)
	x := NewIndex(tr)
	q := MustParseQuery("//l0(l1,//l2)", dict)

	if n := testing.AllocsPerRun(100, func() {
		_ = x.ChildrenByLabel(0, labels[1])
		_ = x.DescendantsByLabel(0, labels[2])
	}); n != 0 {
		t.Fatalf("index probes allocate: %v allocs/op", n)
	}

	var sink int64
	ctx := context.Background()
	for _, src := range []string{"//l0(l1,l2(l0))", "/l0(//l1,//l2)"} {
		c, err := NewCounter(MustParseQuery(src, dict), nil)
		if err != nil || c.Fallback() {
			t.Fatalf("%s: counter %v, fallback %v", src, err, c != nil && c.Fallback())
		}
		budget := int64(1 << 40)
		if n := testing.AllocsPerRun(50, func() {
			st, _ := c.CountContext(ctx, x, &budget)
			sink += st.Matches
		}); n != 0 {
			t.Fatalf("Counter on %s allocates: %v allocs/op", src, n)
		}
	}

	if raceEnabled {
		return
	}
	emit := func(Match) bool { return true }
	Enumerate(x, q, nil, emit) // warm the scratch pool
	if n := testing.AllocsPerRun(50, func() {
		st := Enumerate(x, q, nil, emit)
		sink += st.Matches
	}); n != 0 {
		t.Fatalf("Enumerate allocates: %v allocs/op", n)
	}

	order := []int32{0, 2, 1}
	if n := testing.AllocsPerRun(50, func() {
		st, _ := EnumerateContext(ctx, x, q, order, nil, emit)
		sink += st.Matches
	}); n != 0 {
		t.Fatalf("EnumerateContext allocates: %v allocs/op", n)
	}
	_ = sink
}

// TestEnumerateContextBudget checks that a too-small node budget stops
// the execution with ErrNodeBudget and partial stats, and that a
// sufficient budget reproduces the unbudgeted count.
func TestEnumerateContextBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict, labels := treetest.Alphabet(2)
	tr := treetest.RandomTree(rng, 400, labels, dict)
	x := NewIndex(tr)
	q := MustParseQuery("//l0(//l1)", dict)

	full := Enumerate(x, q, nil, func(Match) bool { return true })
	if full.Candidates < 10 {
		t.Skip("tree too small to exercise the budget")
	}

	budget := full.Candidates / 2
	st, err := CountContext(context.Background(), x, q, nil, &budget)
	if !errors.Is(err, ErrNodeBudget) {
		t.Fatalf("want ErrNodeBudget, got %v", err)
	}
	if st.Candidates >= full.Candidates || st.Candidates == 0 {
		t.Fatalf("partial candidates %d out of range (full %d)", st.Candidates, full.Candidates)
	}

	budget = full.Candidates + 1
	st, err = CountContext(context.Background(), x, q, nil, &budget)
	if err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	if st.Matches != full.Matches {
		t.Fatalf("budgeted count %d != full count %d", st.Matches, full.Matches)
	}
}

// TestEnumerateContextCanceled checks both the fail-fast path and the
// periodic poll.
func TestEnumerateContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dict, labels := treetest.Alphabet(2)
	tr := treetest.RandomTree(rng, 2000, labels, dict)
	x := NewIndex(tr)
	q := MustParseQuery("//l0(//l1,//l0)", dict)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CountContext(ctx, x, q, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// A mid-run cancel stops at the next poll; if the execution finishes
	// before a poll fires, it must have produced the full count.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var visits int
	st, err := EnumerateContext(ctx2, x, q, nil, nil, func(Match) bool {
		visits++
		if visits == 3 {
			cancel2()
		}
		return true
	})
	if err == nil {
		if full := Count(x, q); st.Matches != full {
			t.Fatalf("no cancel error but partial count %d != %d", st.Matches, full)
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestIndexerCachesByTree checks index identity per tree pointer.
func TestIndexerCachesByTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dict, labels := treetest.Alphabet(2)
	_ = dict
	t1 := treetest.RandomTree(rng, 50, labels, dict)
	t2 := treetest.RandomTree(rng, 50, labels, dict)
	ix := NewIndexer()
	a := ix.For(t1)
	if b := ix.For(t1); b != a {
		t.Fatal("same tree produced two indexes")
	}
	if c := ix.For(t2); c == a {
		t.Fatal("distinct trees shared an index")
	}
	got := ix.ForAll([]*labeltree.Tree{t1, t2, t1})
	if got[0] != a || got[2] != a || got[1] == a {
		t.Fatal("ForAll alignment wrong")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

// TestQueryParserGuards checks the fuzz-safety limits.
func TestQueryParserGuards(t *testing.T) {
	dict := labeltree.NewDict()
	deep := ""
	for i := 0; i < maxParseDepth+2; i++ {
		deep += "a("
	}
	if _, err := ParseQuery(deep, dict); err == nil {
		t.Fatal("deep query accepted")
	}
}

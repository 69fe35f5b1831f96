package mine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

func figure1Tree(t *testing.T) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	doc := `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/><price/></laptop></laptops><desktops/></computer>`
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dict
}

func TestMineFigure1Counts(t *testing.T) {
	tr, dict := figure1Tree(t)
	sum, err := Mine(tr, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"laptop", 2},
		{"computer", 1},
		{"laptops(laptop)", 2},
		{"laptop(brand)", 2},
		{"laptop(brand,price)", 2},
		{"computer(laptops(laptop))", 2},
		{"laptops(laptop,laptop)", 2},
	} {
		q := labeltree.MustParsePattern(tc.q, dict)
		got, ok := sum.Count(q)
		if !ok || got != tc.want {
			t.Errorf("Count(%s) = %d,%v want %d", tc.q, got, ok, tc.want)
		}
	}
	// 4-node pattern must not be present in a 3-lattice.
	q4 := labeltree.MustParsePattern("computer(laptops(laptop(brand)))", dict)
	if _, ok := sum.Count(q4); ok {
		t.Fatal("3-lattice contains a 4-node pattern")
	}
}

func TestMineCompleteness(t *testing.T) {
	// Every size-<=k connected pattern with a positive match count must be
	// in the lattice, with the exact count. Cross-check by sampling
	// subtrees of a random data tree.
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(17))
	tr := treetest.RandomTree(rng, 60, alphabet, dict)
	const k = 4
	sum, err := Mine(tr, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The miner counts with twigjoin's counter; enumeration is the
	// independent reference.
	x := twigjoin.NewIndex(tr)
	checked := 0
	for trial := 0; trial < 400; trial++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(k), alphabet)
		want := twigjoin.Enumerate(x, twigjoin.MustQuery(p, nil), nil, func(twigjoin.Match) bool { return true }).Matches
		got, ok := sum.Count(p)
		if want == 0 {
			if ok {
				t.Fatalf("zero-count pattern %s stored with %d", p.String(dict), got)
			}
			continue
		}
		checked++
		if !ok || got != want {
			t.Fatalf("pattern %s: lattice=%d,%v enumeration=%d", p.String(dict), got, ok, want)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d positive patterns checked; test is weak", checked)
	}
}

func TestMineRejectsBadK(t *testing.T) {
	tr, _ := figure1Tree(t)
	if _, err := Mine(tr, 1, Options{}); err == nil {
		t.Fatal("K=1 accepted")
	}
}

func TestMineLevelLimit(t *testing.T) {
	tr, _ := figure1Tree(t)
	if _, err := Mine(tr, 4, Options{MaxPatternsPerLevel: 1}); err == nil {
		t.Fatal("level limit not enforced")
	}
}

func TestMineProgressCallback(t *testing.T) {
	tr, _ := figure1Tree(t)
	var levels []int
	_, err := Mine(tr, 3, Options{Progress: func(level, n int) {
		levels = append(levels, level)
		if n <= 0 {
			t.Errorf("level %d reported %d patterns", level, n)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != 3 || levels[0] != 1 || levels[2] != 3 {
		t.Fatalf("progress levels = %v", levels)
	}
}

func TestCountPerLevel(t *testing.T) {
	tr, _ := figure1Tree(t)
	sizes, err := CountPerLevel(tr, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Level 1: 6 distinct labels. Level 2: distinct parent-child label
	// pairs: computer-laptops, computer-desktops, laptops-laptop,
	// laptop-brand, laptop-price = 5, plus laptops(laptop,laptop)? No —
	// level 2 patterns have exactly 2 nodes, so 5.
	if sizes[1] != 6 || sizes[2] != 5 {
		t.Fatalf("level sizes = %v, want [_, 6, 5]", sizes)
	}
}

func TestMineDeterministic(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(23))
	tr := treetest.RandomTree(rng, 40, alphabet, dict)
	s1, err := Mine(tr, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Mine(tr, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := s1.Entries(0), s2.Entries(0)
	if len(e1) != len(e2) {
		t.Fatal("nondeterministic pattern count")
	}
	for i := range e1 {
		if e1[i].Pattern.Key() != e2[i].Pattern.Key() || e1[i].Count != e2[i].Count {
			t.Fatal("nondeterministic mining result")
		}
	}
}

func TestMineContextCanceled(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(5))
	tr := treetest.RandomTree(rng, 200, alphabet, dict)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineContext(ctx, tr, 4, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled mine returned %v, want context.Canceled", err)
	}
}

func TestMineWorkerCountEquivalence(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(31))
	tr := treetest.RandomTree(rng, 80, alphabet, dict)
	base, err := Mine(tr, 4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := Mine(tr, 4, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		e1, e2 := base.Entries(0), got.Entries(0)
		if len(e1) != len(e2) {
			t.Fatalf("workers=%d: %d patterns, want %d", workers, len(e2), len(e1))
		}
		for i := range e1 {
			if e1[i].Pattern.Key() != e2[i].Pattern.Key() || e1[i].Count != e2[i].Count {
				t.Fatalf("workers=%d: entry %d differs", workers, i)
			}
		}
	}
}

// TestMineSerializedWorkerEquivalence asserts byte-identical summaries —
// including which isomorphism representative each entry stores, which is
// fixed by the candidate enumeration order — across worker counts. This
// pins the determinism contract of the incremental-key dedup: the byte
// encoder's lexicographic order decides candidate order, and that order
// must not depend on counting parallelism.
func TestMineSerializedWorkerEquivalence(t *testing.T) {
	dict, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(37))
	tr := treetest.RandomTree(rng, 120, alphabet, dict)
	var want []byte
	for _, workers := range []int{1, 4, 8} {
		sum, err := Mine(tr, 4, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := sum.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("workers=%d: serialized summary differs from workers=1", workers)
		}
	}
}

// TestMineKeysMatchPatterns verifies the incremental KeyBuilder keys the
// miner hands to AddKeyed: every stored entry must be retrievable by its
// pattern's independently recomputed canonical key.
func TestMineKeysMatchPatterns(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(41))
	tr := treetest.RandomTree(rng, 90, alphabet, dict)
	sum, err := Mine(tr, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sum.Entries(0) {
		if c, ok := sum.CountKey(e.Pattern.Key()); !ok || c != e.Count {
			t.Fatalf("entry %s not reachable under its recomputed key", e.Pattern.String(dict))
		}
	}
}

func TestMineSingleNodeDocument(t *testing.T) {
	dict := labeltree.NewDict()
	b := labeltree.NewBuilder(dict)
	b.AddRoot("only")
	tr := b.Build()
	sum, err := Mine(tr, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Len() != 1 {
		t.Fatalf("Len = %d, want 1", sum.Len())
	}
}

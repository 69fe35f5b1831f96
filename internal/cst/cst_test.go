package cst

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
	"treelattice/internal/xmlparse"
)

func parseDoc(t *testing.T, doc string) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dict
}

func ids(dict *labeltree.Dict, names ...string) []labeltree.LabelID {
	out := make([]labeltree.LabelID, len(names))
	for i, n := range names {
		id, ok := dict.Lookup(n)
		if !ok {
			id = -1
		}
		out[i] = id
	}
	return out
}

func TestPathCountsExact(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b><c/></b><b><c/><c/></b></a>`)
	c := Build(tr, Options{MaxPathLen: 3})
	for _, tc := range []struct {
		path []string
		want float64
	}{
		{[]string{"a"}, 1},
		{[]string{"b"}, 2},
		{[]string{"c"}, 3},
		{[]string{"a", "b"}, 2},
		{[]string{"b", "c"}, 3},
		{[]string{"a", "b", "c"}, 3},
		{[]string{"c", "b"}, 0},
	} {
		if got := c.PathCount(ids(dict, tc.path...)); got != tc.want {
			t.Errorf("PathCount(%v) = %v, want %v", tc.path, got, tc.want)
		}
	}
	if got := c.PathCount(nil); got != 0 {
		t.Errorf("empty path = %v", got)
	}
}

func TestPathMarkovExtension(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b><c><d/></c></b></a>`)
	c := Build(tr, Options{MaxPathLen: 2})
	// a/b/c/d with L=2: f(ab)·f(bc)/f(b)·f(cd)/f(c) = 1.
	got := c.PathCount(ids(dict, "a", "b", "c", "d"))
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("extended path = %v, want 1", got)
	}
}

func TestTwigEstimateOnUncorrelatedDoc(t *testing.T) {
	// Every a has both b and c: supports coincide, Jaccard 1, estimate
	// exact.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 50; i++ {
		sb.WriteString("<a><b/><c/></a>")
	}
	sb.WriteString("</r>")
	tr, dict := parseDoc(t, sb.String())
	c := Build(tr, Options{})
	q := labeltree.MustParsePattern("a(b,c)", dict)
	truth := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	got := c.Estimate(q)
	if math.Abs(got-truth) > 0.05*truth {
		t.Fatalf("Estimate = %v, want ~%v", got, truth)
	}
}

func TestTwigEstimateSeesCorrelation(t *testing.T) {
	// Anti-correlated branches: half the a's have b, the other half c,
	// never both. A naive independence estimate gives 25·1·1 = 25-ish
	// matches; the signatures see disjoint supports and report ~0.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			sb.WriteString("<a><b/></a>")
		} else {
			sb.WriteString("<a><c/></a>")
		}
	}
	sb.WriteString("</r>")
	tr, dict := parseDoc(t, sb.String())
	c := Build(tr, Options{})
	q := labeltree.MustParsePattern("a(b,c)", dict)
	got := c.Estimate(q)
	if got > 3 {
		t.Fatalf("Estimate = %v on anti-correlated branches, want ~0", got)
	}
}

func TestTwigEstimateZeroBranch(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b/></a>`)
	c := Build(tr, Options{})
	q := labeltree.MustParsePattern("a(b,zzz)", dict)
	if got := c.Estimate(q); got != 0 {
		t.Fatalf("Estimate = %v, want 0", got)
	}
}

func TestSizeAccounting(t *testing.T) {
	tr, _ := parseDoc(t, `<a><b/><c/></a>`)
	c := Build(tr, Options{SignatureSize: 8})
	if c.Len() == 0 || c.SizeBytes() <= 0 {
		t.Fatalf("Len=%d Size=%d", c.Len(), c.SizeBytes())
	}
	if c.Name() != "cst" {
		t.Fatal("name changed")
	}
}

func TestJaccardSketchAccuracy(t *testing.T) {
	// Two overlapping sets with known Jaccard ~ 1/3.
	a := newSignature(128)
	b := newSignature(128)
	for x := uint32(0); x < 200; x++ {
		foldSignature(a, x)
	}
	for x := uint32(100); x < 300; x++ {
		foldSignature(b, x)
	}
	j := jaccard(a, b)
	if j < 0.15 || j > 0.55 {
		t.Fatalf("jaccard = %v, want ~0.33", j)
	}
	if jaccard(a, a) != 1 {
		t.Fatal("self jaccard != 1")
	}
	if jaccard(a, nil) != 0 {
		t.Fatal("nil jaccard != 0")
	}
}

func TestRootToLeafPaths(t *testing.T) {
	dict := labeltree.NewDict()
	q := labeltree.MustParsePattern("a(b,c(d))", dict)
	paths := rootToLeafPaths(q)
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	if len(paths[0]) != 2 || len(paths[1]) != 3 {
		t.Fatalf("path lengths = %d, %d", len(paths[0]), len(paths[1]))
	}
}

// TestCSTWorseThanTreeLatticeOnPaths reproduces the related-work claim
// the paper cites: Markov-property methods (which TreeLattice subsumes)
// beat CST on path expressions beyond the stored length.
func TestCSTVersusTreeLatticeOnTwigs(t *testing.T) {
	dict := labeltree.NewDict()
	tr, err := datagen.Generate(datagen.Config{Profile: datagen.NASA, Scale: 8000, Seed: 31}, dict)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mine.Mine(tr, 4, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lat := estimate.NewRecursive(sum, true)
	c := Build(tr, Options{MaxPathLen: 4})
	qs, err := workload.Positive(tr, workload.Options{Sizes: []int{5, 6}, PerSize: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var latErr, cstErr float64
	n := 0
	for _, size := range []int{5, 6} {
		for _, q := range qs[size] {
			truth := float64(q.TrueCount)
			latErr += math.Abs(lat.Estimate(q.Pattern)-truth) / math.Max(1, truth)
			cstErr += math.Abs(c.Estimate(q.Pattern)-truth) / math.Max(1, truth)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no workload")
	}
	t.Logf("avg rel err: treelattice=%.3f cst=%.3f (n=%d)", latErr/float64(n), cstErr/float64(n), n)
	if latErr > cstErr {
		t.Fatalf("TreeLattice (%.3f) not better than CST (%.3f) on NASA twigs", latErr/float64(n), cstErr/float64(n))
	}
}

func TestEstimateRandomizedSanity(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(7))
	tr := treetest.RandomTree(rng, 200, alphabet, dict)
	c := Build(tr, Options{})
	idx := twigjoin.NewIndex(tr)
	for trial := 0; trial < 100; trial++ {
		q := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		got := c.Estimate(q)
		if got < 0 || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Estimate = %v for %s", got, q.String(dict))
		}
		if twigjoin.CountPattern(idx, q) == 0 && q.IsPath() && q.Size() <= 4 {
			if got != 0 {
				t.Fatalf("nonzero estimate %v for absent stored path %s", got, q.String(dict))
			}
		}
	}
}

package markov

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

func chainTree(t *testing.T) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	doc := `<a><b><c><d/></c></b><b><c><d/><d/></c></b></a>`
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

func TestBuildCounts(t *testing.T) {
	tr, dict := chainTree(t)
	tb := Build(tr, 3)
	for _, tc := range []struct {
		path []string
		want int64
	}{
		{[]string{"a"}, 1},
		{[]string{"b"}, 2},
		{[]string{"d"}, 3},
		{[]string{"a", "b"}, 2},
		{[]string{"b", "c"}, 2},
		{[]string{"c", "d"}, 3},
		{[]string{"a", "b", "c"}, 2},
		{[]string{"b", "c", "d"}, 3},
		{[]string{"a", "b", "d"}, 0},
	} {
		got := tb.Count(ids(dict, tc.path...))
		if got != tc.want {
			t.Errorf("Count(%v) = %d, want %d", tc.path, got, tc.want)
		}
	}
}

func TestCountPanicsBeyondK(t *testing.T) {
	tr, dict := chainTree(t)
	tb := Build(tr, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Count beyond K did not panic")
		}
	}()
	tb.Count(ids(dict, "a", "b", "c"))
}

func TestEstimateShortPathIsExact(t *testing.T) {
	tr, dict := chainTree(t)
	tb := Build(tr, 3)
	if got := tb.Estimate(ids(dict, "a", "b", "c")); got != 2 {
		t.Fatalf("Estimate = %v, want 2", got)
	}
}

func TestEstimateMarkovFormula(t *testing.T) {
	tr, dict := chainTree(t)
	tb := Build(tr, 3)
	// f(a/b/c/d) = f(a/b/c) * f(b/c/d) / f(b/c) = 2 * 3 / 2 = 3.
	got := tb.Estimate(ids(dict, "a", "b", "c", "d"))
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("Estimate = %v, want 3", got)
	}
	// The true count is also 3 here (independence holds trivially).
	q := labeltree.MustParsePattern("a(b(c(d)))", dict)
	if truth := twigjoin.CountPattern(twigjoin.NewIndex(tr), q); truth != 3 {
		t.Fatalf("true count = %d, want 3", truth)
	}
}

func TestEstimateZeroDenominator(t *testing.T) {
	tr, dict := chainTree(t)
	tb := Build(tr, 2)
	// Path with an unseen intermediate pair must estimate 0.
	if got := tb.Estimate(ids(dict, "a", "d", "c", "b")); got != 0 {
		t.Fatalf("Estimate = %v, want 0", got)
	}
	if got := tb.Estimate(nil); got != 0 {
		t.Fatalf("Estimate(empty) = %v, want 0", got)
	}
}

func TestEstimatePattern(t *testing.T) {
	tr, dict := chainTree(t)
	tb := Build(tr, 3)
	p := labeltree.MustParsePattern("b(c(d))", dict)
	if got := tb.EstimatePattern(p); got != 3 {
		t.Fatalf("EstimatePattern = %v, want 3", got)
	}
	branching := labeltree.MustParsePattern("a(b,b)", dict)
	defer func() {
		if recover() == nil {
			t.Fatal("EstimatePattern on branching pattern did not panic")
		}
	}()
	tb.EstimatePattern(branching)
}

// TestEstimateTwig: a twig's estimate multiplies its root-to-leaf path
// estimates and divides by each branching node's path estimate once per
// extra branch; a branching point that cannot occur makes the twig zero
// rather than 0/0.
func TestEstimateTwig(t *testing.T) {
	dict := labeltree.NewDict()
	doc := `<r><a><b/><c/></a><a><b/></a><a><c/><c/></a></r>`
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb := Build(tr, 2)
	for _, tc := range []struct {
		q    string
		want float64
	}{
		{"a(b)", 2},           // a path is its own count
		{"a(b,c)", 2},         // f(a/b)·f(a/c) / f(a) = 2·3/3
		{"a(b,c,c)", 2},       // 2·3·3 / 3²
		{"r(a(b),a(c))", 6},   // f(r/a/b)·f(r/a/c) / f(r), each leaf path chained: 2·3/1
		{"r(b(c,c))", 0},      // r/b never occurs
		{"a(b(c),b(c))", 0},   // no b has a c child: zero leaves
		{"r(a(b,c),a(c))", 6}, // (2·3)·3 / f(r/a) / f(r) = 18/3/1
	} {
		if got := tb.EstimateTwig(labeltree.MustParsePattern(tc.q, dict)); got != tc.want {
			t.Errorf("EstimateTwig(%s) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestPathCountsAgreeWithMatcher(t *testing.T) {
	// Path counts in the Markov table must equal twig-match counts of the
	// corresponding path patterns: the lattice and the table agree on the
	// shared special case.
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(7))
	tr := treetest.RandomTree(rng, 80, alphabet, dict)
	tb := Build(tr, 4)
	idx := twigjoin.NewIndex(tr)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		path := make([]labeltree.LabelID, n)
		for i := range path {
			path[i] = alphabet[rng.Intn(len(alphabet))]
		}
		want := twigjoin.CountPattern(idx, labeltree.PathPattern(path...))
		if got := tb.Count(path); got != want {
			t.Fatalf("path %v: table=%d matcher=%d", path, got, want)
		}
	}
}

func TestSizeBytesPositive(t *testing.T) {
	tr, _ := chainTree(t)
	tb := Build(tr, 3)
	if tb.SizeBytes() <= 0 || tb.Len() <= 0 {
		t.Fatalf("SizeBytes=%d Len=%d", tb.SizeBytes(), tb.Len())
	}
}

func TestBuildPanicsOnTinyK(t *testing.T) {
	tr, _ := chainTree(t)
	defer func() {
		if recover() == nil {
			t.Fatal("K=1 accepted")
		}
	}()
	Build(tr, 1)
}

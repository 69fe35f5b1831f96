package statix

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

func parseDoc(t *testing.T, doc string) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dict
}

// figure11Doc: 3×b(cccc) + 1×b(cc) under r — average-based synopses
// estimate b(c,c) at 49; histograms recover the exact 38.
func figure11Doc(t *testing.T) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 3; i++ {
		sb.WriteString("<b><c/><c/><c/><c/></b>")
	}
	sb.WriteString("<b><c/><c/></b>")
	sb.WriteString("</r>")
	return parseDoc(t, sb.String())
}

func TestHistogramsBeatAveragesOnFigure11(t *testing.T) {
	tr, dict := figure11Doc(t)
	s := Build(tr, Options{})
	q := labeltree.MustParsePattern("b(c,c)", dict)
	truth := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	got := s.Estimate(q)
	if math.Abs(got-truth) > 1e-9 {
		t.Fatalf("Estimate = %v, want exact %v (histogram second moment)", got, truth)
	}
}

func TestSingleEdgeExact(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(3))
	tr := treetest.RandomTree(rng, 300, alphabet, dict)
	s := Build(tr, Options{})
	idx := twigjoin.NewIndex(tr)
	for _, a := range alphabet {
		if got := s.Estimate(labeltree.SingleNode(a)); got != float64(tr.LabelCount(a)) {
			t.Fatalf("label count mismatch: %v", got)
		}
		for _, b := range alphabet {
			q := labeltree.PathPattern(a, b)
			want := float64(twigjoin.CountPattern(idx, q))
			if got := s.Estimate(q); math.Abs(got-want) > 1e-9 {
				t.Fatalf("edge %v/%v: %v != %v", a, b, got, want)
			}
		}
	}
}

func TestDuplicateSiblingsExactPerLabel(t *testing.T) {
	// Same-label sibling groups use falling-factorial moments: exact for
	// flat duplicate-leaf queries, any multiplicity.
	dict, alphabet := treetest.Alphabet(2)
	rng := rand.New(rand.NewSource(7))
	tr := treetest.RandomTree(rng, 200, alphabet, dict)
	s := Build(tr, Options{})
	idx := twigjoin.NewIndex(tr)
	a, b := alphabet[0], alphabet[1]
	for m := 1; m <= 4; m++ {
		labels := []labeltree.LabelID{a}
		parents := []int32{-1}
		for i := 0; i < m; i++ {
			labels = append(labels, b)
			parents = append(parents, 0)
		}
		q := labeltree.MustPattern(labels, parents)
		want := float64(twigjoin.CountPattern(idx, q))
		got := s.Estimate(q)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("m=%d: %v != %v", m, got, want)
		}
	}
}

func TestZeroForAbsentPairs(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b/></a>`)
	s := Build(tr, Options{})
	for _, qs := range []string{"zzz", "b(a)", "a(zzz)"} {
		q := labeltree.MustParsePattern(qs, dict)
		if got := s.Estimate(q); got != 0 {
			t.Fatalf("Estimate(%s) = %v", qs, got)
		}
	}
}

func TestBucketCap(t *testing.T) {
	// Many distinct counts with a tiny cap still build and keep totals
	// plausible.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 1; i <= 20; i++ {
		sb.WriteString("<p>")
		for j := 0; j < i; j++ {
			sb.WriteString("<q/>")
		}
		sb.WriteString("</p>")
	}
	sb.WriteString("</r>")
	tr, dict := parseDoc(t, sb.String())
	s := Build(tr, Options{MaxBuckets: 4})
	if s.SizeBytes() <= 0 || s.Pairs() == 0 {
		t.Fatal("degenerate summary")
	}
	q := labeltree.MustParsePattern("p(q)", dict)
	got := s.Estimate(q)
	if got <= 0 {
		t.Fatalf("capped estimate = %v", got)
	}
	// Totals drift under capping but stay the right order of magnitude.
	truth := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	if got < truth/3 || got > truth*3 {
		t.Fatalf("capped estimate %v too far from %v", got, truth)
	}
}

func TestDeepQuerySanity(t *testing.T) {
	tr, dict := figure11Doc(t)
	s := Build(tr, Options{})
	q := labeltree.MustParsePattern("r(b(c,c),b(c))", dict)
	truth := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	got := s.Estimate(q)
	if got <= 0 || math.IsNaN(got) {
		t.Fatalf("estimate = %v (true %v)", got, truth)
	}
	if s.Name() != "statix" {
		t.Fatal("name changed")
	}
}

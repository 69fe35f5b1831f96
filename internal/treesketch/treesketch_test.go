package treesketch

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

// figure11Doc builds the document of the paper's Figure 11 discussion
// (suitably concretized, as the paper itself abstracts it): a root with
// four b-elements, three of which have four c-children each and one of
// which has two.
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

func TestExactWhenBudgetGenerous(t *testing.T) {
	// With an effectively unlimited budget the synopsis keeps the
	// count-stable partition and simple label/edge counts are exact.
	tr, dict := figure11Doc(t)
	syn := Build(tr, Options{BudgetBytes: 1 << 20})
	idx := twigjoin.NewIndex(tr)
	for _, qs := range []string{"b", "c", "r(b)", "b(c)", "r(b(c))"} {
		q := labeltree.MustParsePattern(qs, dict)
		want := float64(twigjoin.CountPattern(idx, q))
		if got := syn.Estimate(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("Estimate(%s) = %v, want %v", qs, got, want)
		}
	}
}

func TestAverageMultiplicationError(t *testing.T) {
	// Force the budget down so the two kinds of b-elements share one
	// cluster: the edge average 3.5 hides the variance and the branching
	// query b(c,c) is misestimated, while its true count is
	// 3·(4·3) + 1·(2·1) = 38. This is the Figure 11 error mechanism.
	tr, dict := figure11Doc(t)
	syn := Build(tr, Options{BudgetBytes: 90}) // a handful of nodes only
	if syn.Nodes() > 4 {
		t.Fatalf("budget did not force merging: %d nodes", syn.Nodes())
	}
	q := labeltree.MustParsePattern("b(c,c)", dict)
	truth := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	if truth != 38 {
		t.Fatalf("true count = %v, want 38", truth)
	}
	got := syn.Estimate(q)
	// Average multiplication gives 4 · 3.5 · 3.5 = 49.
	if math.Abs(got-49) > 1e-9 {
		t.Fatalf("Estimate = %v, want 49 (average multiplication)", got)
	}
}

func TestZeroForAbsentStructure(t *testing.T) {
	tr, dict := figure11Doc(t)
	syn := Build(tr, Options{})
	for _, qs := range []string{"zzz", "c(b)", "r(c)"} {
		q := labeltree.MustParsePattern(qs, dict)
		if got := syn.Estimate(q); got != 0 {
			t.Errorf("Estimate(%s) = %v, want 0", qs, got)
		}
	}
}

func TestBudgetRespected(t *testing.T) {
	dict, alphabet := treetest.Alphabet(6)
	rng := rand.New(rand.NewSource(3))
	tr := treetest.RandomTree(rng, 3000, alphabet, dict)
	budget := 2000
	syn := Build(tr, Options{BudgetBytes: budget})
	if syn.SizeBytes() > budget {
		// One merge per label group per round may overshoot slightly on
		// the final round; allow a single node's worth of slack.
		if syn.SizeBytes() > budget+64 {
			t.Fatalf("SizeBytes = %d, budget %d", syn.SizeBytes(), budget)
		}
	}
	if syn.Nodes() < len(tr.DistinctLabels()) {
		t.Fatalf("fewer synopsis nodes (%d) than labels (%d)", syn.Nodes(), len(tr.DistinctLabels()))
	}
}

func TestElementCountsPreserved(t *testing.T) {
	// Whatever the clustering, per-label element totals must be exact.
	dict, alphabet := treetest.Alphabet(5)
	rng := rand.New(rand.NewSource(8))
	tr := treetest.RandomTree(rng, 800, alphabet, dict)
	syn := Build(tr, Options{BudgetBytes: 600})
	for _, l := range tr.DistinctLabels() {
		q := labeltree.SingleNode(l)
		want := float64(tr.LabelCount(l))
		if got := syn.Estimate(q); math.Abs(got-want) > 1e-9 {
			t.Fatalf("label %s: %v != %v", dict.Name(l), got, want)
		}
	}
}

func TestEdgeTotalsPreserved(t *testing.T) {
	// Parent-child label pair totals are also exact regardless of
	// clustering: sum over clusters of count × avg reproduces the total.
	dict, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(12))
	tr := treetest.RandomTree(rng, 500, alphabet, dict)
	syn := Build(tr, Options{BudgetBytes: 400})
	idx := twigjoin.NewIndex(tr)
	for _, a := range tr.DistinctLabels() {
		for _, b := range tr.DistinctLabels() {
			q := labeltree.PathPattern(a, b)
			want := float64(twigjoin.CountPattern(idx, q))
			if got := syn.Estimate(q); math.Abs(got-want) > 1e-6*math.Max(1, want) {
				t.Fatalf("pair %s/%s: %v != %v", dict.Name(a), dict.Name(b), got, want)
			}
		}
	}
}

func TestRecursiveSchema(t *testing.T) {
	// Self-nesting labels (a inside a) must not wedge construction or
	// estimation.
	tr, dict := parseDoc(t, `<a><a><a><b/></a><b/></a><b/></a>`)
	syn := Build(tr, Options{})
	q := labeltree.MustParsePattern("a(a(b))", dict)
	want := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	if got := syn.Estimate(q); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Estimate = %v, want %v", got, want)
	}
}

func TestDeterministic(t *testing.T) {
	dict, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(21))
	tr := treetest.RandomTree(rng, 400, alphabet, dict)
	s1 := Build(tr, Options{BudgetBytes: 500})
	s2 := Build(tr, Options{BudgetBytes: 500})
	if s1.Nodes() != s2.Nodes() || s1.SizeBytes() != s2.SizeBytes() {
		t.Fatal("construction not deterministic")
	}
	q := treetest.RandomPattern(rng, 4, alphabet)
	if s1.Estimate(q) != s2.Estimate(q) {
		t.Fatal("estimation not deterministic")
	}
}

func TestStringSummary(t *testing.T) {
	tr, _ := figure11Doc(t)
	syn := Build(tr, Options{})
	if s := syn.String(); !strings.Contains(s, "nodes") {
		t.Fatalf("String = %q", s)
	}
}

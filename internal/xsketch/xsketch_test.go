package xsketch

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"treelattice/internal/datagen"
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

func TestExactWhenFullyStable(t *testing.T) {
	// A rigid document becomes backward-stable under a generous budget:
	// path estimates are then exact.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 20; i++ {
		sb.WriteString("<a><b><c/></b></a>")
	}
	sb.WriteString("</r>")
	tr, dict := parseDoc(t, sb.String())
	syn := Build(tr, Options{BudgetBytes: 1 << 20})
	if syn.StableFraction() != 1 {
		t.Fatalf("stable fraction = %v, want 1", syn.StableFraction())
	}
	idx := twigjoin.NewIndex(tr)
	for _, qs := range []string{"a", "a(b)", "a(b(c))", "r(a(b(c)))"} {
		q := labeltree.MustParsePattern(qs, dict)
		want := float64(twigjoin.CountPattern(idx, q))
		if got := syn.Estimate(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("Estimate(%s) = %v, want %v", qs, got, want)
		}
	}
}

func TestBudgetLimitsRefinement(t *testing.T) {
	dict, alphabet := treetest.Alphabet(5)
	rng := rand.New(rand.NewSource(3))
	tr := treetest.RandomTree(rng, 2000, alphabet, dict)
	small := Build(tr, Options{BudgetBytes: 400})
	big := Build(tr, Options{BudgetBytes: 1 << 20})
	if small.Nodes() > big.Nodes() {
		t.Fatalf("smaller budget produced more nodes: %d > %d", small.Nodes(), big.Nodes())
	}
	if small.SizeBytes() > 400+600 {
		// One refinement round may overshoot before the check; allow
		// bounded slack.
		t.Fatalf("size %d far beyond budget", small.SizeBytes())
	}
}

func TestLabelCountsExact(t *testing.T) {
	dict, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(5))
	tr := treetest.RandomTree(rng, 600, alphabet, dict)
	syn := Build(tr, Options{BudgetBytes: 800})
	for _, l := range tr.DistinctLabels() {
		want := float64(tr.LabelCount(l))
		if got := syn.Estimate(labeltree.SingleNode(l)); math.Abs(got-want) > 1e-9 {
			t.Fatalf("label %s: %v != %v", dict.Name(l), got, want)
		}
	}
}

func TestZeroForAbsentStructure(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b/></a>`)
	syn := Build(tr, Options{})
	for _, qs := range []string{"zzz", "b(a)", "a(b(b))"} {
		q := labeltree.MustParsePattern(qs, dict)
		if got := syn.Estimate(q); got != 0 {
			t.Errorf("Estimate(%s) = %v, want 0", qs, got)
		}
	}
}

func TestInstabilityDegradesBranchingQueries(t *testing.T) {
	// The Figure-11 style document: under a tight budget the two b-kinds
	// share a node and b(c,c) is overestimated by average multiplication.
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 3; i++ {
		sb.WriteString("<b><c/><c/><c/><c/></b>")
	}
	sb.WriteString("<b><c/><c/></b>")
	sb.WriteString("</r>")
	tr, dict := parseDoc(t, sb.String())
	syn := Build(tr, Options{BudgetBytes: 60})
	q := labeltree.MustParsePattern("b(c,c)", dict)
	truth := float64(twigjoin.CountPattern(twigjoin.NewIndex(tr), q))
	got := syn.Estimate(q)
	if got == truth {
		t.Fatalf("tight-budget estimate unexpectedly exact (%v)", got)
	}
	if got <= 0 {
		t.Fatalf("estimate = %v", got)
	}
}

func TestName(t *testing.T) {
	tr, _ := parseDoc(t, `<a/>`)
	if Build(tr, Options{}).Name() != "xsketch" {
		t.Fatal("name changed")
	}
}

func TestOnXMarkSanity(t *testing.T) {
	dict := labeltree.NewDict()
	tr, err := datagen.Generate(datagen.Config{Profile: datagen.XMark, Scale: 6000, Seed: 2}, dict)
	if err != nil {
		t.Fatal(err)
	}
	syn := Build(tr, Options{BudgetBytes: 8 << 10})
	idx := twigjoin.NewIndex(tr)
	q := labeltree.MustParsePattern("open_auction(bidder(date))", dict)
	truth := float64(twigjoin.CountPattern(idx, q))
	got := syn.Estimate(q)
	if truth > 0 && (got <= 0 || math.IsNaN(got) || math.IsInf(got, 0)) {
		t.Fatalf("estimate = %v for true %v", got, truth)
	}
}

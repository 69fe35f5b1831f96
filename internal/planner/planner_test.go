package planner

import (
	"strings"
	"testing"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// skewedDoc has many r elements with common children and a single rare
// child: a plan that probes the rare branch first fails fast.
func skewedDoc(t *testing.T) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 200; i++ {
		sb.WriteString("<r>")
		for j := 0; j < 5; j++ {
			sb.WriteString("<common><x/></common>")
		}
		if i == 0 {
			sb.WriteString("<rare><y/></rare>")
		}
		sb.WriteString("</r>")
	}
	sb.WriteString("</root>")
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader(sb.String()), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dict
}

func estimatorFor(t *testing.T, tr *labeltree.Tree) estimate.Estimator {
	t.Helper()
	sum, err := mine.Mine(tr, 3, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return estimate.NewRecursive(sum, true)
}

func TestChooseOrdersSelectiveSubtreeFirst(t *testing.T) {
	tr, dict := skewedDoc(t)
	est := estimatorFor(t, tr)
	// Stored numbering binds common (node 1..2) before rare (node 3..4).
	q := twigjoin.MustParseQuery("//r(common(x),rare(y))", dict)
	plan := Choose(q, est)
	// The rare subtree must come right after the root in the plan.
	if plan.Order[0] != 0 {
		t.Fatalf("plan does not start at root: %v", plan.Order)
	}
	rareIdx := int32(-1)
	for i := int32(0); int(i) < q.Pattern.Size(); i++ {
		if dict.Name(q.Pattern.Label(i)) == "rare" {
			rareIdx = i
		}
	}
	if plan.Order[1] != rareIdx {
		t.Fatalf("plan %v does not bind rare (node %d) first", plan.Order, rareIdx)
	}
	if plan.EstimatedMatches <= 0 {
		t.Fatalf("estimated matches = %v", plan.EstimatedMatches)
	}
}

func TestPlannedExecutionBeatsNaive(t *testing.T) {
	tr, dict := skewedDoc(t)
	est := estimatorFor(t, tr)
	x := twigjoin.NewIndex(tr)
	q := twigjoin.MustParseQuery("//r(common(x),rare(y))", dict)

	planned := Choose(q, est)
	gotPlanned, stPlanned := Execute(x, q, planned)

	naive := Plan{Order: NaiveOrder(q)}
	gotNaive, stNaive := Execute(x, q, naive)

	truth := enumCount(twigjoin.NewIndex(tr), q.Pattern)
	if gotPlanned != truth || gotNaive != truth {
		t.Fatalf("match counts diverge: planned=%d naive=%d truth=%d", gotPlanned, gotNaive, truth)
	}
	if stPlanned.Candidates >= stNaive.Candidates {
		t.Fatalf("planned scan (%d candidates) not cheaper than naive (%d)",
			stPlanned.Candidates, stNaive.Candidates)
	}
	// The saving should be substantial on this skew.
	if stPlanned.Candidates*2 > stNaive.Candidates {
		t.Fatalf("planned scan only marginally cheaper: %d vs %d",
			stPlanned.Candidates, stNaive.Candidates)
	}
}

func TestAnchorPath(t *testing.T) {
	dict := labeltree.NewDict()
	p := labeltree.MustParsePattern("a(b,c(d))", dict)
	got := anchorPath(p, 3) // d
	a, _ := dict.Lookup("a")
	c, _ := dict.Lookup("c")
	d, _ := dict.Lookup("d")
	if !got.Equal(labeltree.PathPattern(a, c, d)) {
		t.Fatalf("anchorPath = %s", got.String(dict))
	}
	if !anchorPath(p, 0).Equal(labeltree.SingleNode(a)) {
		t.Fatal("root anchor path wrong")
	}
}

func TestPlanOrderIsValidPermutation(t *testing.T) {
	tr, dict := skewedDoc(t)
	est := estimatorFor(t, tr)
	for _, qs := range []string{"//r", "//r(common)", "//r(common(x),rare(y))", "//root(r(common,rare))"} {
		q := twigjoin.MustParseQuery(qs, dict)
		plan := Choose(q, est)
		seen := make(map[int32]int)
		for at, n := range plan.Order {
			seen[n] = at
		}
		if len(seen) != q.Pattern.Size() {
			t.Fatalf("%s: order %v is not a permutation", qs, plan.Order)
		}
		for i := int32(1); int(i) < q.Pattern.Size(); i++ {
			if seen[i] < seen[q.Pattern.Parent(i)] {
				t.Fatalf("%s: child before parent in %v", qs, plan.Order)
			}
		}
		if len(plan.PathEstimates) != q.Pattern.Size() {
			t.Fatalf("%s: missing path estimates", qs)
		}
	}
}

// enumCount counts p's matches by enumeration, independently of the
// counter the code under test uses.
func enumCount(x *twigjoin.Index, p labeltree.Pattern) int64 {
	return twigjoin.Enumerate(x, twigjoin.MustQuery(p, nil), nil, func(twigjoin.Match) bool { return true }).Matches
}

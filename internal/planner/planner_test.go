package planner

import (
	"fmt"
	"strings"
	"testing"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// skewedDoc has many r elements with common children and a single rare
// child: a plan that probes the rare branch first fails fast. All but the
// first r are one subtree, so the counter's memo answers them after the
// first whatever the bind order.
func skewedDoc(t *testing.T) (*labeltree.Tree, *labeltree.Dict) {
	return parseSkewed(t, false)
}

// shapedSkewedDoc is skewedDoc with each r given its own shape: r number i
// also holds an empty mark element mb for each bit b set in i, so no two
// r subtrees are equal and the bind order decides the counter's work.
func shapedSkewedDoc(t *testing.T) (*labeltree.Tree, *labeltree.Dict) {
	return parseSkewed(t, true)
}

func parseSkewed(t *testing.T, shaped bool) (*labeltree.Tree, *labeltree.Dict) {
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
		for b := 0; shaped && i>>b != 0; b++ {
			if i>>b&1 != 0 {
				fmt.Fprintf(&sb, "<m%d/>", b)
			}
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

// TestPlannedExecutionBeatsNaive: on r subtrees that all differ, binding
// the rare branch first visits far fewer candidates than the naive order.
func TestPlannedExecutionBeatsNaive(t *testing.T) {
	stPlanned, stNaive := plannedAndNaive(t, shapedSkewedDoc)
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

// TestRepeatedSubtreesCollapseBindOrder: when the r subtrees repeat, the
// counter's memo counts the repeated one once under either order, so the
// two orders visit about as many candidates, both far below the 2,202 the
// naive order visits without the memo.
func TestRepeatedSubtreesCollapseBindOrder(t *testing.T) {
	stPlanned, stNaive := plannedAndNaive(t, skewedDoc)
	if d := stNaive.Candidates - stPlanned.Candidates; d < -8 || d > 8 || stNaive.Candidates > 250 {
		t.Fatalf("planned %d and naive %d candidates: want both near the 200 r visits",
			stPlanned.Candidates, stNaive.Candidates)
	}
}

// plannedAndNaive counts //r(common(x),rare(y)) over doc's document under
// the planner's order and the naive one, checks both against enumeration
// and returns their stats.
func plannedAndNaive(t *testing.T, doc func(*testing.T) (*labeltree.Tree, *labeltree.Dict)) (planned, naive twigjoin.Stats) {
	t.Helper()
	tr, dict := doc(t)
	est := estimatorFor(t, tr)
	x := twigjoin.NewIndex(tr)
	q := twigjoin.MustParseQuery("//r(common(x),rare(y))", dict)

	gotPlanned, planned := Execute(x, q, Choose(q, est))
	gotNaive, naive := Execute(x, q, Plan{Order: NaiveOrder(q)})

	truth := enumCount(twigjoin.NewIndex(tr), q.Pattern)
	if gotPlanned != truth || gotNaive != truth {
		t.Fatalf("match counts diverge: planned=%d naive=%d truth=%d", gotPlanned, gotNaive, truth)
	}
	t.Logf("planned %d, naive %d candidates", planned.Candidates, naive.Candidates)
	return planned, naive
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

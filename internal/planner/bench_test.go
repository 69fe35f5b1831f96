package planner

import (
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"

	"treelattice/internal/estimate"
)

// benchDoc is skewedDoc scaled up: many r subtrees with fat common
// branches and one rare branch, the structure where bind order dominates
// executor work.
func benchDoc(b *testing.B) (*labeltree.Tree, *labeltree.Dict) {
	b.Helper()
	var sb strings.Builder
	sb.WriteString("<root>")
	for i := 0; i < 2000; i++ {
		sb.WriteString("<r>")
		for j := 0; j < 5; j++ {
			sb.WriteString("<common><x/></common>")
		}
		if i%100 == 0 {
			sb.WriteString("<rare><y/></rare>")
		}
		sb.WriteString("</r>")
	}
	sb.WriteString("</root>")
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader(sb.String()), dict, xmlparse.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return tr, dict
}

// BenchmarkPlanVsNaive counts the same query under the planner-chosen
// bind order and the stored-numbering baseline; candidates/op is the
// work metric the plan is supposed to reduce.
func BenchmarkPlanVsNaive(b *testing.B) {
	tr, dict := benchDoc(b)
	sum, err := mine.Mine(tr, 3, mine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	est := estimate.NewRecursive(sum, true)
	x := twigjoin.NewIndex(tr)
	q := twigjoin.MustParseQuery("//r(common(x),rare(y))", dict)

	plan := Choose(q, est)
	naive := Plan{Order: NaiveOrder(q)}
	wantPlanned, _ := Execute(x, q, plan)
	wantNaive := twigjoin.Enumerate(x, q, naive.Order, func(twigjoin.Match) bool { return true })
	if wantPlanned != wantNaive.Matches {
		b.Fatalf("plan count %d != naive count %d", wantPlanned, wantNaive.Matches)
	}

	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		var st twigjoin.Stats
		for i := 0; i < b.N; i++ {
			_, st = Execute(x, q, plan)
		}
		b.ReportMetric(float64(st.Candidates), "candidates/op")
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		var st twigjoin.Stats
		for i := 0; i < b.N; i++ {
			_, st = Execute(x, q, naive)
		}
		b.ReportMetric(float64(st.Candidates), "candidates/op")
	})
}

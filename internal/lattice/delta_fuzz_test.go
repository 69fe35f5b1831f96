package lattice_test

import (
	"testing"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// FuzzDeltaMerge drives a random op sequence through the copy-on-write
// Delta chain, served over a base through estimate.Merged, and a plain
// reference map in lockstep. Every byte pair of the input is one op:
// a document add, the removal of a live document (its increment applied
// with a negative sign, whether it lives in the delta or was folded into
// the base), or a refreeze that folds the whole delta into a new base.
// After every op the merged view must answer each pattern's count and
// presence exactly as the reference does: a document added and then
// removed leaves no trace, and a count of zero reads as absent.
func FuzzDeltaMerge(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{7, 7, 7, 7, 7, 7})
	f.Add([]byte{0xff, 0x00, 0x10, 0x80, 0x3c})
	f.Add([]byte("refreeze"))
	f.Add([]byte{0, 5, 3, 0, 1, 2, 4, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dict := labeltree.NewDict()
		pats := []labeltree.Pattern{
			labeltree.MustParsePattern("a", dict),
			labeltree.MustParsePattern("b", dict),
			labeltree.MustParsePattern("a(b)", dict),
			labeltree.MustParsePattern("a(b,c)", dict),
			labeltree.MustParsePattern("b(c(d))", dict),
			labeltree.MustParsePattern("a(b(c),d)", dict),
		}
		ref := make(map[labeltree.Key]int64)
		base := lattice.New(4, dict)
		cur := lattice.NewDelta(4, dict)
		var live []*lattice.Summary // increments of the documents present
		changes := 0
		for i := 0; i+1 < len(data); i += 2 {
			var err error
			switch data[i] % 5 {
			case 4: // refreeze: fold everything seen so far, subtract the cut
				next := base.Clone()
				if err := cur.FoldInto(next); err != nil {
					t.Fatalf("op %d: fold: %v", i, err)
				}
				rest, err := cur.Subtract(cur)
				if err != nil {
					t.Fatalf("op %d: subtract: %v", i, err)
				}
				if !rest.Empty() {
					t.Fatalf("op %d: full cut left %d entries, %d docs", i, rest.Len(), rest.Docs())
				}
				base, cur, changes = next, rest, 0
			case 3: // remove a live document
				if len(live) == 0 {
					continue
				}
				j := int(data[i+1]) % len(live)
				inc := live[j]
				live = append(live[:j], live[j+1:]...)
				if cur, err = cur.Retract(inc); err != nil {
					t.Fatal(err)
				}
				for _, e := range inc.Entries(0) {
					ref[e.Pattern.Key()] -= e.Count
				}
				changes++
			default: // add one document: up to three pattern bumps
				inc := lattice.New(4, dict)
				for j := 0; j < 3; j++ {
					p := pats[int(data[i]+byte(j)*7)%len(pats)]
					n := int64(data[i+1]%13) + 1
					if err := inc.AddCount(p, n); err != nil {
						t.Fatal(err)
					}
					ref[p.Key()] += n
				}
				if cur, err = cur.Apply(inc); err != nil {
					t.Fatal(err)
				}
				live = append(live, inc)
				changes++
			}
			if cur.Docs() != changes {
				t.Fatalf("op %d: docs = %d, want %d", i, cur.Docs(), changes)
			}
			merged := &estimate.Merged{Base: base, Delta: cur}
			for _, p := range pats {
				want := ref[p.Key()]
				got, ok := merged.CountKey(p.Key())
				if got != want || ok != (want != 0) {
					t.Fatalf("op %d: count(%s) = %d,%v want %d,%v", i, p.String(dict), got, ok, want, want != 0)
				}
			}
		}
	})
}

package estimate

import (
	"math"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// PruneDerivable implements the δ-derivable pruning algorithm of Figure 6
// (Section 4.3). A pattern is δ-derivable (Definition 2) when its true
// selectivity is within relative tolerance δ of the selectivity the
// lattice would estimate for it by decomposition; such patterns carry no
// information and can be dropped. The result is a new summary containing
// levels 1 and 2 in full and, per level m ≥ 3 in ascending order, only the
// patterns that are not δ-derivable from the summary built so far.
//
// With δ = 0 the pruned summary yields exactly the same estimates as the
// full one for every query that occurs in the data (Lemma 5): every
// removed pattern is reconstructed exactly by the recursive fallback, and
// every subpattern of an occurring query occurs. Queries with zero true
// selectivity may estimate nonzero against a pruned summary, because the
// summary cannot distinguish "pruned as derivable" from "never occurred";
// this is the same failure mode the paper reports for negative workloads
// (Section 5.1, <1% of cases).
func PruneDerivable(sum *lattice.Summary, delta float64) *lattice.Summary {
	out := lattice.New(sum.K(), sum.Dict())
	out.MarkPruned()
	for _, e := range sum.Entries(1) {
		mustAdd(out, e)
	}
	for _, e := range sum.Entries(2) {
		mustAdd(out, e)
	}
	for level := 3; level <= sum.K(); level++ {
		for _, e := range sum.Entries(level) {
			memo := make(map[labeltree.Key]float64)
			est := lookup(out, e.Pattern.Key(), e.Pattern.Size(), memo)
			if relErr(float64(e.Count), est) > delta {
				mustAdd(out, e)
			}
		}
	}
	return out
}

// relErr is |s − ŝ| / s; stored counts are always positive.
func relErr(truth, est float64) float64 {
	if truth <= 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(truth-est) / truth
}

func mustAdd(s *lattice.Summary, e lattice.Entry) {
	if err := s.Add(e.Pattern, e.Count); err != nil {
		// Entries come from a valid summary of the same K; failure here
		// is a programming error, not an input condition.
		panic(err)
	}
}

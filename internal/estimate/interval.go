package estimate

import (
	"context"
	"math"

	"treelattice/internal/labeltree"
)

// Interval brackets a selectivity estimate by the spread of decomposition
// choices: Lo and Hi are the smallest and largest values obtainable by
// picking leaf pairs at every recursion level. This is the empirical
// error-spread the paper's future work gestures at — not a statistical
// bound on the true count, but a measure of how sensitive the estimate is
// to the decomposition choice: a wide interval means the conditional
// independence assumption is doing a lot of work.
type Interval struct {
	Lo, Hi float64
}

// Width is Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in [Lo, Hi] (with a small relative
// tolerance for float accumulation).
func (iv Interval) Contains(v float64) bool {
	eps := 1e-9 * math.Max(1, math.Abs(v))
	return v >= iv.Lo-eps && v <= iv.Hi+eps
}

// EstimateInterval computes the decomposition-choice interval of q against
// sum. Patterns answered directly by the lattice get point intervals;
// reconstruction of pruned in-range patterns is deterministic and also a
// point. The recursion polls ctx at the estimators' interval and returns
// ctx.Err() once it is done.
func EstimateInterval(ctx context.Context, sum Store, q labeltree.Pattern) (Interval, error) {
	// One engine resolves every in-range point and counts the recursion's
	// steps between context polls.
	e := engine{sum: sum, memo: make(map[labeltree.Key]float64), ctx: ctx}
	defer e.release()
	memo := make(map[labeltree.Key]Interval)
	var dec decomposer
	var rec func(key labeltree.Key, size int) Interval
	rec = func(key labeltree.Key, size int) Interval {
		if e.stopped() {
			return Interval{}
		}
		if iv, ok := memo[key]; ok {
			return iv
		}
		if c, ok := sum.CountKey(key); ok {
			iv := Interval{float64(c), float64(c)}
			memo[key] = iv
			return iv
		}
		if size <= sum.K() {
			// Absent (complete summary) or deterministically
			// reconstructed (pruned summary): a point either way.
			v := e.estimateKeyed(key, size, 0)
			iv := Interval{v, v}
			memo[key] = iv
			return iv
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, d := range dec.appendAll(nil, key) {
			iv1, iv2, ivc := rec(d.lo, size-1), rec(d.hi, size-1), rec(d.common, size-2)
			plo := 0.0
			if ivc.Hi > 0 {
				plo = iv1.Lo * iv2.Lo / ivc.Hi
			}
			var phi float64
			switch {
			case ivc.Lo > 0:
				phi = iv1.Hi * iv2.Hi / ivc.Lo
			case iv1.Hi > 0 && iv2.Hi > 0 && ivc.Hi > 0:
				// The common part may or may not occur across
				// decomposition choices; the ratio is unbounded above.
				phi = math.Inf(1)
			default:
				phi = 0
			}
			if plo < lo {
				lo = plo
			}
			if phi > hi {
				hi = phi
			}
		}
		iv := Interval{lo, hi}
		memo[key] = iv
		return iv
	}
	iv := rec(q.Key(), q.Size())
	if e.ctxErr != nil {
		return Interval{}, e.ctxErr
	}
	return iv, nil
}

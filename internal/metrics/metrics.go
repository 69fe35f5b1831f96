// Package metrics implements the error metric of Section 5.1: the
// absolute error |s − ŝ| / max(sanity, s), where the sanity bound keeps
// low-count queries from producing artificially high percentages. The
// paper sets the bound to the 10th percentile of true query counts, and at
// least 10. QError adds the multiplicative error the per-method table
// reports.
package metrics

import (
	"math"
	"sort"
)

// MinSanity is the floor on the sanity bound, per the paper.
const MinSanity = 10

// SanityBound returns max(MinSanity, 10th percentile of trueCounts).
func SanityBound(trueCounts []int64) float64 {
	if len(trueCounts) == 0 {
		return MinSanity
	}
	sorted := append([]int64(nil), trueCounts...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	p10 := sorted[len(sorted)/10]
	if float64(p10) < MinSanity {
		return MinSanity
	}
	return float64(p10)
}

// AbsError is |truth − est| / max(sanity, truth).
func AbsError(truth, est, sanity float64) float64 {
	den := math.Max(sanity, truth)
	if den <= 0 {
		den = 1
	}
	return math.Abs(truth-est) / den
}

// QError is the multiplicative error max(a/b, b/a) between an estimate
// and the true count, with both smoothed by +1 so zero-selectivity
// queries still score; 1 is a perfect estimate.
func QError(est, truth float64) float64 {
	a, b := est+1, truth+1
	if a < b {
		a, b = b, a
	}
	return a / b
}

// Mean averages xs; it returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by the
// nearest-rank method. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// CDFPoint is one point of a cumulative error distribution: the fraction
// (in percent) of observations with error ≤ Threshold.
type CDFPoint struct {
	Threshold  float64
	CumPercent float64
}

// CDF evaluates the cumulative distribution of errs at the given
// thresholds (which should be ascending, e.g. logarithmically spaced as in
// Figure 8).
func CDF(errs []float64, thresholds []float64) []CDFPoint {
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(thresholds))
	for i, th := range thresholds {
		n := sort.SearchFloat64s(sorted, math.Nextafter(th, math.Inf(1)))
		pct := 0.0
		if len(sorted) > 0 {
			pct = 100 * float64(n) / float64(len(sorted))
		}
		out[i] = CDFPoint{Threshold: th, CumPercent: pct}
	}
	return out
}

// LogThresholds returns n thresholds logarithmically spaced between lo and
// hi inclusive, matching the X axis of Figure 8 (0.1% to 10000%).
func LogThresholds(lo, hi float64, n int) []float64 {
	if n < 2 || lo <= 0 || hi <= lo {
		panic("metrics: LogThresholds requires n >= 2 and 0 < lo < hi")
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	x := lo
	for i := range out {
		out[i] = x
		x *= ratio
	}
	out[n-1] = hi
	return out
}

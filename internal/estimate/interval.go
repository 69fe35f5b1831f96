package estimate

import "math"

// Interval brackets a selectivity estimate by the spread of decomposition
// choices: Lo and Hi are the smallest and largest values obtainable by
// picking leaf pairs at every recursion level. This is the empirical
// error-spread the paper's future work gestures at — not a statistical
// bound on the true count, but a measure of how sensitive the estimate is
// to the decomposition choice: a wide interval means the conditional
// independence assumption is doing a lot of work. The voting engine
// tracks it beside the estimate (Recursive.ExplainContext).
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

// hull widens iv to cover o.
func (iv Interval) hull(o Interval) Interval {
	if o.Lo < iv.Lo {
		iv.Lo = o.Lo
	}
	if o.Hi > iv.Hi {
		iv.Hi = o.Hi
	}
	return iv
}

// pairBounds is Theorem 1's product over one leaf pair with intervals
// t1 and t2 for the two one-leaf-smaller twigs and c for their common
// part: the smallest and largest augmentation the intervals admit.
func pairBounds(t1, t2, c Interval) Interval {
	var iv Interval
	if c.Hi > 0 {
		iv.Lo = Saturate(t1.Lo * t2.Lo / c.Hi)
	}
	switch {
	case c.Lo > 0:
		iv.Hi = Saturate(t1.Hi * t2.Hi / c.Lo)
	case t1.Hi > 0 && t2.Hi > 0 && c.Hi > 0:
		// The common part may or may not occur across decomposition
		// choices; the ratio is unbounded above.
		iv.Hi = math.Inf(1)
	}
	return iv
}

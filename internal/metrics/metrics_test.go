package metrics

import (
	"math"
	"testing"
)

func TestSanityBound(t *testing.T) {
	if got := SanityBound(nil); got != MinSanity {
		t.Fatalf("empty = %v, want %v", got, MinSanity)
	}
	small := []int64{1, 2, 3, 4, 5}
	if got := SanityBound(small); got != MinSanity {
		t.Fatalf("small counts = %v, want floor %v", got, MinSanity)
	}
	// 10th percentile of 100..1090 step 10 is around 200.
	var big []int64
	for i := 0; i < 100; i++ {
		big = append(big, int64(100+10*i))
	}
	got := SanityBound(big)
	if got < 100 || got > 300 {
		t.Fatalf("p10 = %v, want ~200", got)
	}
}

func TestAbsError(t *testing.T) {
	if got := AbsError(100, 150, 10); got != 0.5 {
		t.Fatalf("AbsError = %v, want 0.5", got)
	}
	// Sanity bound caps the denominator from below.
	if got := AbsError(1, 11, 10); got != 1 {
		t.Fatalf("AbsError = %v, want 1", got)
	}
	if got := AbsError(0, 0, 10); got != 0 {
		t.Fatalf("AbsError = %v, want 0", got)
	}
	if got := AbsError(0, 0, 0); got != 0 {
		t.Fatalf("AbsError with zero sanity = %v, want 0", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := Percentile(xs, 1); got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
}

func TestCDF(t *testing.T) {
	errs := []float64{0.1, 0.5, 1, 2, 10}
	pts := CDF(errs, []float64{0.1, 1, 100})
	if pts[0].CumPercent != 20 {
		t.Fatalf("CDF(0.1) = %v, want 20", pts[0].CumPercent)
	}
	if pts[1].CumPercent != 60 {
		t.Fatalf("CDF(1) = %v, want 60", pts[1].CumPercent)
	}
	if pts[2].CumPercent != 100 {
		t.Fatalf("CDF(100) = %v, want 100", pts[2].CumPercent)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(pts); i++ {
		if pts[i].CumPercent < pts[i-1].CumPercent {
			t.Fatal("CDF not monotone")
		}
	}
	empty := CDF(nil, []float64{1})
	if empty[0].CumPercent != 0 {
		t.Fatalf("CDF of empty = %v", empty[0].CumPercent)
	}
}

func TestLogThresholds(t *testing.T) {
	ths := LogThresholds(0.1, 10000, 6)
	if len(ths) != 6 || ths[0] != 0.1 || ths[5] != 10000 {
		t.Fatalf("thresholds = %v", ths)
	}
	for i := 1; i < len(ths); i++ {
		ratio := ths[i] / ths[i-1]
		if math.Abs(ratio-10) > 1e-9 {
			t.Fatalf("ratio %v at %d, want 10", ratio, i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad arguments accepted")
		}
	}()
	LogThresholds(0, 1, 3)
}

func TestQError(t *testing.T) {
	for _, tc := range []struct{ est, truth, want float64 }{
		{9, 9, 1},
		{19, 9, 2}, // over by 2× after smoothing
		{9, 19, 2}, // under scores the same
		{0, 0, 1},  // zero selectivity answered zero
		{3, 0, 4},
	} {
		if got := QError(tc.est, tc.truth); got != tc.want {
			t.Errorf("QError(%v, %v) = %v, want %v", tc.est, tc.truth, got, tc.want)
		}
	}
}

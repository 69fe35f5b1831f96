package estimate

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/treetest"
)

func TestEstimateWithTraceInLattice(t *testing.T) {
	tr, dict := uniformDoc(t, 5)
	sum := mineK(t, tr, 3)
	r := NewRecursive(sum, false)
	q := labeltree.MustParsePattern("a(b,c)", dict)
	est, trace := r.EstimateWithTrace(q)
	if est != r.Estimate(q) {
		t.Fatal("traced estimate differs from plain estimate")
	}
	if trace.LatticeHits != 1 || trace.LatticeMisses != 0 || trace.Augmentations != 0 || trace.MaxDepth != 0 {
		t.Fatalf("in-lattice trace = %+v", trace)
	}
}

func TestEstimateWithTraceDecomposed(t *testing.T) {
	tr, dict := uniformDoc(t, 5)
	sum := mineK(t, tr, 3)
	r := NewRecursive(sum, false)
	q := labeltree.MustParsePattern("root(a(b,c,d))", dict) // size 5, K=3
	est, trace := r.EstimateWithTrace(q)
	if est != r.Estimate(q) {
		t.Fatal("traced estimate differs from plain estimate")
	}
	if trace.LatticeMisses == 0 || trace.Augmentations == 0 {
		t.Fatalf("decomposition trace = %+v", trace)
	}
	// Size 5 with K=3 needs two recursion levels.
	if trace.MaxDepth < 2 {
		t.Fatalf("MaxDepth = %d, want >= 2", trace.MaxDepth)
	}
}

// TestTraceMemoHits: a voting estimate's leaf pairs share sub-twigs, so
// the memo answers repeats, and every lookup is exactly one of a memo hit,
// a lattice hit or a lattice miss: one for the query plus three per
// augmentation.
func TestTraceMemoHits(t *testing.T) {
	tr, dict := uniformDoc(t, 5)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("root(a(b,c,d))", dict) // size 5, K=3
	for _, voting := range []bool{false, true} {
		_, trace := NewRecursive(sum, voting).EstimateWithTrace(q)
		if lookups := trace.MemoHits + trace.LatticeHits + trace.LatticeMisses; lookups != 1+3*trace.Augmentations {
			t.Fatalf("voting=%v: %d lookups for %d augmentations: %+v", voting, lookups, trace.Augmentations, trace)
		}
		if voting && trace.MemoHits == 0 {
			t.Fatalf("voting trace has no memo hits though its pairs share sub-twigs: %+v", trace)
		}
	}
}

func TestEstimateWithTraceReconstructions(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	_ = dict
	rng := rand.New(rand.NewSource(3))
	tr := treetest.RandomTree(rng, 100, alphabet, dict)
	sum := mineK(t, tr, 4)
	pruned := PruneDerivable(sum, 0)
	if pruned.Len() == sum.Len() {
		t.Skip("nothing pruned; reconstruction not exercised")
	}
	r := NewRecursive(pruned, true)
	sawReconstruction := false
	for trial := 0; trial < 100 && !sawReconstruction; trial++ {
		q := treetest.RandomPattern(rng, 6, alphabet)
		_, trace := r.EstimateWithTrace(q)
		if trace.Reconstructions > 0 {
			sawReconstruction = true
		}
	}
	if !sawReconstruction {
		t.Fatal("no reconstruction recorded against a pruned summary")
	}
}

func TestIntervalPointForLatticePatterns(t *testing.T) {
	tr, dict := uniformDoc(t, 5)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("a(b,c)", dict)
	iv := mustInterval(t, sum, q)
	if iv.Lo != iv.Hi || iv.Lo != 5 {
		t.Fatalf("interval = %+v, want point 5", iv)
	}
	if !iv.Contains(5) || iv.Contains(6) {
		t.Fatal("Contains misbehaves")
	}
	if iv.Width() != 0 {
		t.Fatalf("Width = %v", iv.Width())
	}
}

// TestIntervalBracketsEstimators: both recursive estimates lie within
// the voting pass's interval, on the full summary and on a δ = 0.1-pruned
// one, whose in-range reconstructions are points.
func TestIntervalBracketsEstimators(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(53))
	tr := treetest.RandomTree(rng, 150, alphabet, dict)
	full := mineK(t, tr, 3)
	for _, sum := range []*lattice.Summary{full, PruneDerivable(full, 0.1)} {
		rec := NewRecursive(sum, false)
		vote := NewRecursive(sum, true)
		checked := 0
		for trial := 0; trial < 200; trial++ {
			q := treetest.RandomPattern(rng, 4+rng.Intn(4), alphabet)
			iv := mustInterval(t, sum, q)
			if iv.Lo > iv.Hi {
				t.Fatalf("inverted interval %+v for %s", iv, q.String(dict))
			}
			for _, est := range []Estimator{rec, vote} {
				v := est.Estimate(q)
				if !iv.Contains(v) {
					t.Fatalf("pruned=%v: %s estimate %v outside interval %+v for %s",
						sum.Pruned(), est.Name(), v, iv, q.String(dict))
				}
			}
			if iv.Hi > 0 {
				checked++
			}
		}
		if checked < 10 {
			t.Fatalf("pruned=%v: only %d informative intervals; test is weak", sum.Pruned(), checked)
		}
	}
}

func TestIntervalZeroWidthUnderUniformity(t *testing.T) {
	// On the perfectly uniform document every decomposition choice gives
	// the same value: the interval must collapse to the exact count.
	tr, dict := uniformDoc(t, 6)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("root(a(b,c,d))", dict)
	iv := mustInterval(t, sum, q)
	if math.Abs(iv.Width()) > 1e-9 {
		t.Fatalf("interval not a point under uniformity: %+v", iv)
	}
	if math.Abs(iv.Lo-6) > 1e-9 {
		t.Fatalf("interval = %+v, want 6", iv)
	}
}

func TestIntervalZeroForImpossibleQueries(t *testing.T) {
	tr, dict := uniformDoc(t, 4)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("root(zzz(b,c,d))", dict)
	iv := mustInterval(t, sum, q)
	if iv.Lo != 0 || iv.Hi != 0 {
		t.Fatalf("interval for impossible query = %+v", iv)
	}
}

// mustInterval is the voting estimator's interval for q without a
// deadline, failing t on error.
func mustInterval(t *testing.T, sum Store, q labeltree.Pattern) Interval {
	t.Helper()
	_, _, iv, err := NewRecursive(sum, true).ExplainContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return iv
}

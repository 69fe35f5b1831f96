package online

import (
	"math"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
)

func setup(t *testing.T) (*Tuner, *labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: datagen.IMDB, Scale: 8000, Seed: 4}, dict)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mine.Mine(tree, 3, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return NewTuner(sum, 4096), tree, dict
}

func TestFeedbackCorrectsExactQuery(t *testing.T) {
	tuner, tree, dict := setup(t)
	q := labeltree.MustParsePattern("movie(actor(name),keyword,genre)", dict)
	truth := twigjoin.CountPattern(twigjoin.NewIndex(tree), q)
	if truth == 0 {
		t.Skip("query has zero selectivity in this document")
	}
	before := tuner.Estimate(q)
	if before == float64(truth) {
		t.Skip("estimate already exact; feedback is a no-op")
	}
	tuner.Feedback(q, truth)
	after := tuner.Estimate(q)
	if after != float64(truth) {
		t.Fatalf("after feedback: %v, want %d", after, truth)
	}
}

func TestFeedbackHelpsSupersetQueries(t *testing.T) {
	// A correction for a size-5 pattern must improve a size-6 query that
	// decomposes through it.
	tuner, tree, dict := setup(t)
	idx := twigjoin.NewIndex(tree)
	sub := labeltree.MustParsePattern("movie(actor,keyword,genre,release)", dict)
	big := labeltree.MustParsePattern("movie(actor(name),keyword,genre,release)", dict)
	subTruth := twigjoin.CountPattern(idx, sub)
	bigTruth := twigjoin.CountPattern(idx, big)
	if subTruth == 0 || bigTruth == 0 {
		t.Skip("workload patterns do not occur")
	}
	before := math.Abs(tuner.Estimate(big) - float64(bigTruth))
	tuner.Feedback(sub, subTruth)
	after := math.Abs(tuner.Estimate(big) - float64(bigTruth))
	if after > before {
		t.Fatalf("correction hurt a superset query: before=%v after=%v", before, after)
	}
	if after == before {
		// The correction must at least have been consulted.
		if tuner.Corrections() == 0 {
			t.Fatal("feedback stored nothing")
		}
	}
}

func TestWorkloadErrorDropsWithFeedback(t *testing.T) {
	// Replay a workload twice, feeding back true counts in between: the
	// aggregate error on the second pass must drop substantially.
	tuner, tree, _ := setup(t)
	qs, err := workload.Positive(tree, workload.Options{Sizes: []int{5, 6}, PerSize: 15, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var queries []workload.Query
	for _, size := range []int{5, 6} {
		queries = append(queries, qs[size]...)
	}
	pass := func() float64 {
		var total float64
		for _, q := range queries {
			est := tuner.Estimate(q.Pattern)
			total += math.Abs(est-float64(q.TrueCount)) / math.Max(1, float64(q.TrueCount))
		}
		return total / float64(len(queries))
	}
	first := pass()
	for _, q := range queries {
		tuner.Feedback(q.Pattern, q.TrueCount)
	}
	second := pass()
	if first == 0 {
		t.Skip("workload already exact")
	}
	if second > first/2 {
		t.Fatalf("feedback did not halve error: first=%.4f second=%.4f (corrections=%d, used=%dB)",
			first, second, tuner.Corrections(), tuner.UsedBytes())
	}
}

func TestBudgetEnforced(t *testing.T) {
	dict := labeltree.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: datagen.NASA, Scale: 5000, Seed: 4}, dict)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := mine.Mine(tree, 2, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	budget := 200
	tuner := NewTuner(sum, budget)
	qs, err := workload.Positive(tree, workload.Options{Sizes: []int{4, 5}, PerSize: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for _, size := range []int{4, 5} {
		for _, q := range qs[size] {
			tuner.Feedback(q.Pattern, q.TrueCount)
			fed++
			if tuner.UsedBytes() > budget {
				t.Fatalf("budget exceeded: %d > %d after %d feedbacks", tuner.UsedBytes(), budget, fed)
			}
		}
	}
	if tuner.Corrections() == 0 {
		t.Fatal("everything evicted; budget policy degenerate")
	}
	if fed < 20 {
		t.Fatalf("only %d feedbacks exercised", fed)
	}
}

func TestFeedbackIgnoresExactEstimates(t *testing.T) {
	tuner, tree, dict := setup(t)
	// In-lattice pattern: estimate is already exact, feedback is a no-op.
	q := labeltree.MustParsePattern("movie(actor)", dict)
	truth := twigjoin.CountPattern(twigjoin.NewIndex(tree), q)
	tuner.Feedback(q, truth)
	if tuner.Corrections() != 0 {
		t.Fatal("stored a correction for an exact estimate")
	}
}

func TestFeedbackRefreshesExistingCorrection(t *testing.T) {
	tuner, tree, dict := setup(t)
	q := labeltree.MustParsePattern("movie(actor(name),keyword,genre)", dict)
	truth := twigjoin.CountPattern(twigjoin.NewIndex(tree), q)
	if truth == 0 || tuner.Estimate(q) == float64(truth) {
		t.Skip("query unusable for refresh test")
	}
	tuner.Feedback(q, truth)
	// Document "changed": new truth.
	tuner.Feedback(q, truth+5)
	if got := tuner.Estimate(q); got != float64(truth+5) {
		t.Fatalf("refreshed estimate = %v, want %d", got, truth+5)
	}
	if tuner.Corrections() != 1 {
		t.Fatalf("Corrections = %d, want 1", tuner.Corrections())
	}
}

func TestNewTunerPanicsOnBadBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero budget accepted")
		}
	}()
	NewTuner(nil, 0)
}

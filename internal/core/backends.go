package core

import (
	"context"
	"errors"
	"fmt"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/markov"
	"treelattice/internal/sampling"
	"treelattice/internal/treesketch"
)

// The non-decomposition methods the method table serves alongside the
// paper's three (MethodRecursive, MethodRecursiveVoting, MethodFixSized).
const (
	// MethodMarkov estimates via a Markov table of path counts: twigs
	// decompose into root-to-leaf paths under path independence (the
	// Lemma 4 baseline generalized to branching queries).
	MethodMarkov Method = "markov"
	// MethodTreeSketch estimates from per-document TreeSketches graph
	// synopses (the comparison baseline).
	MethodTreeSketch Method = "treesketches"
	// MethodSampling estimates by bounded random probes through the
	// twigjoin engine against the corpus documents — the Alley-style
	// independent cross-check on the synopsis methods.
	MethodSampling Method = "sampling"
	// MethodEnsemble runs the primary decomposition estimator and the
	// sampling estimator concurrently, answers with the primary estimate,
	// and flags queries where the two diverge.
	MethodEnsemble Method = "ensemble"
)

// DefaultSamplingOptions bounds the sampling method: enough probes to
// stabilize the inverse-fraction scaling, a node budget that keeps one
// estimate under a few milliseconds on paper-scale documents, and a
// fixed seed so estimates are reproducible run-to-run.
var DefaultSamplingOptions = sampling.Options{Probes: 64, MaxNodes: 1 << 20, Seed: 1}

// DefaultEnsembleThreshold is the smoothed divergence ratio
// (max+1)/(min+1) at which the ensemble flags a query. 4 tolerates the
// variance a 64-probe sample carries while still catching the
// order-of-magnitude misses compounded independence assumptions produce.
const DefaultEnsembleThreshold = 4.0

// ---- decomposition methods (the paper's estimators) ----

// The decomposition methods answer with exactly the estimator a direct
// caller would build, so table-routed estimates are bit-identical to
// direct calls. The two recursive methods answer repeats from the
// summary's answer cache (cache.go). Fix-sized keeps none: its cover
// terms are stored patterns, so it never answered from a cache.

func prepareRecursive(_ context.Context, s *Summary) (Prepared, error) {
	return cachedRecursive(s.recursive(MethodRecursive), &s.recursiveAnswers), nil
}

func prepareRecursiveVoting(_ context.Context, s *Summary) (Prepared, error) {
	return cachedRecursive(s.recursive(MethodRecursiveVoting), &s.votingAnswers), nil
}

func prepareFixSized(_ context.Context, s *Summary) (Prepared, error) {
	fix := &estimate.FixSized{Sum: s.st}
	return estimateFunc(func(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
		v, err := fix.EstimateContext(ctx, q)
		if err != nil {
			return Aggregate{}, err
		}
		return Aggregate{Estimate: v}, nil
	}), nil
}

// recursive returns the recursive estimator of MethodRecursive or
// MethodRecursiveVoting over the summary's store.
func (s *Summary) recursive(m Method) *estimate.Recursive {
	return &estimate.Recursive{Sum: s.st, Voting: m == MethodRecursiveVoting}
}

// ---- markov ----

func prepareMarkov(_ context.Context, s *Summary) (Prepared, error) {
	trees, err := s.sourceTrees(MethodMarkov)
	if err != nil {
		return nil, err
	}
	k := s.K()
	if k < 2 {
		k = 2
	}
	tb := markov.BuildForest(trees, k)
	// A path-table estimate is a handful of map probes: one poll covers it.
	return estimateFunc(func(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
		if err := ctx.Err(); err != nil {
			return Aggregate{}, err
		}
		return Aggregate{Estimate: tb.EstimateTwig(q)}, nil
	}), nil
}

// ---- treesketch ----

// treesketchOptions bounds synopsis construction for serving: the default
// (effectively unbounded) refinement and merge limits reproduce the
// paper's construction-cost findings, which is exactly what a Prepare on
// the request path must not do.
var treesketchOptions = treesketch.Options{
	BudgetBytes:       50 << 10,
	MaxRefineClusters: 2048,
	MaxRefineRounds:   8,
	MaxMergeRounds:    512,
}

// prepareTreeSketch builds one synopsis per document. Matches never span
// documents, so the per-document estimates sum to the answer.
func prepareTreeSketch(ctx context.Context, s *Summary) (Prepared, error) {
	trees, err := s.sourceTrees(MethodTreeSketch)
	if err != nil {
		return nil, err
	}
	syn := make([]*treesketch.Synopsis, len(trees))
	for i, t := range trees {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		syn[i] = treesketch.Build(t, treesketchOptions)
	}
	return estimateFunc(func(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
		var total float64
		for _, sy := range syn {
			v, err := sy.EstimateContext(ctx, q)
			if err != nil {
				return Aggregate{}, err
			}
			total += v
		}
		return Aggregate{Estimate: total}, nil
	}), nil
}

// ---- sampling ----

func prepareSampling(_ context.Context, s *Summary) (Prepared, error) {
	trees, err := s.sourceTrees(MethodSampling)
	if err != nil {
		return nil, err
	}
	se, err := sampling.New(s.twigIndexer().ForAll(trees), DefaultSamplingOptions)
	if err != nil {
		return nil, err
	}
	return estimateFunc(func(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
		v, err := se.EstimateContext(ctx, q)
		if errors.Is(err, sampling.ErrBudgetExhausted) {
			// Re-class into the core vocabulary so the degradation ladder and
			// the serve layer can branch without importing sampling.
			return Aggregate{}, fmt.Errorf("%w: %v", ErrBudgetExhausted, err)
		}
		if err != nil {
			return Aggregate{}, err
		}
		return Aggregate{Estimate: v}, nil
	}), nil
}

// ---- ensemble ----

// prepareEnsemble resolves both delegates through the summary's prepared
// cache, so an ensemble shares its primary's answer cache and its
// cross-checker's probe indexes with direct uses of those methods.
func prepareEnsemble(ctx context.Context, s *Summary) (Prepared, error) {
	primary, err := s.preparedFor(ctx, MethodRecursiveVoting, prepareRecursiveVoting)
	if err != nil {
		return nil, err
	}
	cross, err := s.preparedFor(ctx, MethodSampling, prepareSampling)
	if err != nil {
		return nil, err
	}
	return ensemble(primary, cross, DefaultEnsembleThreshold), nil
}

// ensemble answers with primary and cross-checks it with cross on one
// more goroutine, so the check costs wall-clock max instead of sum. A
// failed primary fails the estimate; a failed cross-check (a blown
// sampling budget) leaves the answer unchecked instead.
func ensemble(primary, cross Prepared, threshold float64) Prepared {
	return estimateFunc(func(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
		var check Aggregate
		var checkErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			check, checkErr = cross.Estimate(ctx, q)
		}()
		answer, err := primary.Estimate(ctx, q)
		<-done
		if err != nil {
			return Aggregate{}, err
		}
		agg := Aggregate{Estimate: answer.Estimate}
		if checkErr == nil {
			agg.Checked = true
			agg.CrossEstimate = check.Estimate
			agg.Divergence = divergenceRatio(agg.Estimate, agg.CrossEstimate)
			agg.Divergent = agg.Divergence >= threshold
		}
		return agg, nil
	})
}

// divergenceRatio is the smoothed ratio (max+1)/(min+1): 1 at perfect
// agreement, and finite even when one side estimates zero (where a raw
// q-error would divide by zero).
func divergenceRatio(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return (a + 1) / (b + 1)
}

// sourceTrees fetches the bound document source for a method that needs
// one, classifying the failure modes under ErrMethodUnavailable.
func (s *Summary) sourceTrees(m Method) ([]*labeltree.Tree, error) {
	src := s.Source()
	if src == nil {
		return nil, fmt.Errorf("%w: method %q needs documents and the summary has no bound source", ErrMethodUnavailable, m)
	}
	trees := src.Trees()
	if len(trees) == 0 {
		return nil, fmt.Errorf("%w: method %q needs documents and the corpus is empty", ErrMethodUnavailable, m)
	}
	return trees, nil
}

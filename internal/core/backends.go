package core

import (
	"context"
	"fmt"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/markov"
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
)

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
			total = estimate.Saturate(total + v)
		}
		return Aggregate{Estimate: total}, nil
	}), nil
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

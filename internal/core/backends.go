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

// The non-decomposition methods the registry serves alongside the
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

// DefaultSamplingOptions bounds the registered sampling backend: enough
// probes to stabilize the inverse-fraction scaling, a node budget that
// keeps one estimate under a few milliseconds on paper-scale documents,
// and a fixed seed so estimates are reproducible run-to-run.
var DefaultSamplingOptions = sampling.Options{Probes: 64, MaxNodes: 1 << 20, Seed: 1}

// DefaultEnsembleThreshold is the smoothed divergence ratio
// (max+1)/(min+1) at which the ensemble flags a query. 4 tolerates the
// variance a 64-probe sample carries while still catching the
// order-of-magnitude misses compounded independence assumptions produce.
const DefaultEnsembleThreshold = 4.0

func init() {
	DefaultRegistry.MustRegister(decompBackend{
		method: MethodRecursive, fallback: MethodFixSized,
		desc: "recursive leaf-pair decomposition (Section 3.2)",
	})
	DefaultRegistry.MustRegister(decompBackend{
		method: MethodRecursiveVoting, voting: true, fallback: MethodFixSized,
		desc: "recursive decomposition averaging all leaf pairs (Section 3.2, voting)",
	})
	DefaultRegistry.MustRegister(decompBackend{
		method: MethodFixSized, fixed: true,
		desc: "preorder K-subtree cover with telescoping product (Section 3.3)",
	})
	DefaultRegistry.MustRegister(markovBackend{})
	DefaultRegistry.MustRegister(treesketchBackend{})
	DefaultRegistry.MustRegister(samplingBackend{})
	DefaultRegistry.MustRegister(ensembleBackend{
		primary: MethodRecursiveVoting, cross: MethodSampling,
		threshold: DefaultEnsembleThreshold,
	})
}

// ---- decomposition backends (the paper's estimators) ----

// decompBackend adapts the estimate package's decomposition estimators.
// Decompose emits the whole query as one subquery and EstCard delegates
// to exactly the estimator construction the pre-registry API used, so
// registry-routed estimates are bit-identical to direct calls.
type decompBackend struct {
	method   Method
	voting   bool
	fixed    bool
	fallback Method
	desc     string
}

func (b decompBackend) Method() Method { return b.method }

func (b decompBackend) Capabilities() Capabilities {
	return Capabilities{
		SupportsFrozen: true,
		SupportsBatch:  true,
		Fallback:       b.fallback,
		Description:    b.desc,
	}
}

func (b decompBackend) Prepare(_ context.Context, s *Summary) (Prepared, error) {
	if b.fixed {
		return wholeQueryPrepared{est: &estimate.FixSized{Sum: s.st, Cache: s.SubCache(b.method)}}, nil
	}
	return recursivePrepared{
		wholeQueryPrepared{est: &estimate.Recursive{Sum: s.st, Voting: b.voting, Cache: s.SubCache(b.method)}},
	}, nil
}

// wholeQueryPrepared runs a ContextEstimator as a single-subquery
// pipeline.
type wholeQueryPrepared struct {
	est estimate.ContextEstimator
}

func (p wholeQueryPrepared) Decompose(q labeltree.Pattern) ([]Subquery, error) {
	return []Subquery{{Pattern: q, Weight: 1}}, nil
}

func (p wholeQueryPrepared) EstCard(ctx context.Context, sub Subquery) (float64, error) {
	return p.est.EstimateContext(ctx, sub.Pattern)
}

func (p wholeQueryPrepared) AggCard(_ []Subquery, cards []Card) Aggregate {
	return Aggregate{Estimate: cards[0].Value}
}

// recursivePrepared additionally exposes the recursive estimator's work
// trace for /v1/explain.
type recursivePrepared struct {
	wholeQueryPrepared
}

func (p recursivePrepared) EstimateWithTrace(q labeltree.Pattern) (float64, estimate.Trace) {
	return p.est.(*estimate.Recursive).EstimateWithTrace(q)
}

// ---- markov backend ----

type markovBackend struct{}

func (markovBackend) Method() Method { return MethodMarkov }

func (markovBackend) Capabilities() Capabilities {
	return Capabilities{
		SupportsFrozen: true,
		SupportsBatch:  true,
		NeedsDocuments: true,
		Description:    "Markov path table, twigs via root-to-leaf path independence (Lemma 4 baseline)",
	}
}

func (markovBackend) Prepare(_ context.Context, s *Summary) (Prepared, error) {
	trees, err := s.sourceTrees(MethodMarkov)
	if err != nil {
		return nil, err
	}
	k := s.K()
	if k < 2 {
		k = 2
	}
	return markovPrepared{tb: markov.BuildForest(trees, k)}, nil
}

type markovPrepared struct {
	tb *markov.Table
}

func (p markovPrepared) Decompose(q labeltree.Pattern) ([]Subquery, error) {
	terms := markov.TwigPaths(q)
	subs := make([]Subquery, len(terms))
	for i, t := range terms {
		subs[i] = Subquery{Path: t.Path, Weight: float64(t.Weight)}
	}
	return subs, nil
}

func (p markovPrepared) EstCard(ctx context.Context, sub Subquery) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return p.tb.Estimate(sub.Path), nil
}

func (p markovPrepared) AggCard(subs []Subquery, cards []Card) Aggregate {
	terms := make([]markov.PathTerm, len(subs))
	vals := make([]float64, len(subs))
	for i, sub := range subs {
		terms[i] = markov.PathTerm{Path: sub.Path, Weight: int(sub.Weight)}
		vals[i] = cards[i].Value
	}
	return Aggregate{Estimate: markov.CombinePathTerms(terms, vals)}
}

// ---- treesketch backend ----

type treesketchBackend struct{}

func (treesketchBackend) Method() Method { return MethodTreeSketch }

func (treesketchBackend) Capabilities() Capabilities {
	return Capabilities{
		SupportsFrozen: true,
		SupportsBatch:  true,
		NeedsDocuments: true,
		Description:    "TreeSketches graph synopsis per document, estimates summed (comparison baseline)",
	}
}

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

func (treesketchBackend) Prepare(ctx context.Context, s *Summary) (Prepared, error) {
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
	return treesketchPrepared{syn: syn}, nil
}

type treesketchPrepared struct {
	syn []*treesketch.Synopsis
}

// Decompose emits one subquery per document: matches never span
// documents, so per-document estimates are additive.
func (p treesketchPrepared) Decompose(q labeltree.Pattern) ([]Subquery, error) {
	subs := make([]Subquery, len(p.syn))
	for i := range subs {
		subs[i] = Subquery{Pattern: q, Doc: i, Weight: 1}
	}
	return subs, nil
}

func (p treesketchPrepared) EstCard(ctx context.Context, sub Subquery) (float64, error) {
	return p.syn[sub.Doc].EstimateContext(ctx, sub.Pattern)
}

func (p treesketchPrepared) AggCard(_ []Subquery, cards []Card) Aggregate {
	var total float64
	for _, c := range cards {
		total += c.Value
	}
	return Aggregate{Estimate: total}
}

// ---- sampling backend ----

type samplingBackend struct{}

func (samplingBackend) Method() Method { return MethodSampling }

func (samplingBackend) Capabilities() Capabilities {
	return Capabilities{
		SupportsFrozen: true,
		SupportsBatch:  true,
		Budgeted:       true,
		NeedsDocuments: true,
		Fallback:       MethodFixSized,
		Description:    "bounded random probes through the twigjoin engine (Alley-style cross-check)",
	}
}

func (samplingBackend) Prepare(_ context.Context, s *Summary) (Prepared, error) {
	trees, err := s.sourceTrees(MethodSampling)
	if err != nil {
		return nil, err
	}
	se, err := sampling.New(s.twigIndexer().ForAll(trees), DefaultSamplingOptions)
	if err != nil {
		return nil, err
	}
	return samplingPrepared{se: se}, nil
}

type samplingPrepared struct {
	se *sampling.Estimator
}

func (p samplingPrepared) Decompose(q labeltree.Pattern) ([]Subquery, error) {
	return []Subquery{{Pattern: q, Weight: 1}}, nil
}

func (p samplingPrepared) EstCard(ctx context.Context, sub Subquery) (float64, error) {
	v, err := p.se.EstimateContext(ctx, sub.Pattern)
	if errors.Is(err, sampling.ErrBudgetExhausted) {
		// Re-class into the core vocabulary so the degradation ladder and
		// the serve layer can branch without importing sampling.
		return 0, fmt.Errorf("%w: %v", ErrBudgetExhausted, err)
	}
	return v, err
}

func (p samplingPrepared) AggCard(_ []Subquery, cards []Card) Aggregate {
	return Aggregate{Estimate: cards[0].Value}
}

// ---- ensemble backend ----

type ensembleBackend struct {
	primary, cross Method
	threshold      float64
}

func (b ensembleBackend) Method() Method { return MethodEnsemble }

func (b ensembleBackend) Capabilities() Capabilities {
	return Capabilities{
		SupportsFrozen: true,
		SupportsBatch:  true,
		Budgeted:       true,
		NeedsDocuments: true,
		Fallback:       b.primary,
		Description: fmt.Sprintf("%s answered, %s cross-checked concurrently; flags divergence ≥ %g",
			b.primary, b.cross, b.threshold),
	}
}

// Prepare resolves both delegate backends through the summary's prepared
// cache, so an ensemble shares its primary's sub-estimate cache and its
// cross-checker's probe indexes with direct uses of those methods.
func (b ensembleBackend) Prepare(ctx context.Context, s *Summary) (Prepared, error) {
	pp, err := s.preparedFor(ctx, b.primary)
	if err != nil {
		return nil, err
	}
	cp, err := s.preparedFor(ctx, b.cross)
	if err != nil {
		return nil, err
	}
	return ensemblePrepared{primary: pp, cross: cp, threshold: b.threshold}, nil
}

type ensemblePrepared struct {
	primary, cross Prepared
	threshold      float64
}

// roles of the ensemble's two subqueries.
const (
	rolePrimary = "primary"
	roleCross   = "cross"
)

// Decompose emits the primary run and the optional cross-check: a
// cross-check that blows its probe budget degrades the estimate to
// unchecked instead of failing it.
func (p ensemblePrepared) Decompose(q labeltree.Pattern) ([]Subquery, error) {
	return []Subquery{
		{Pattern: q, Role: rolePrimary, Weight: 1},
		{Pattern: q, Role: roleCross, Optional: true},
	}, nil
}

// ConcurrentSubqueries runs primary and cross in parallel — the
// cross-check costs wall-clock max instead of sum.
func (p ensemblePrepared) ConcurrentSubqueries() bool { return true }

func (p ensemblePrepared) EstCard(ctx context.Context, sub Subquery) (float64, error) {
	delegate := p.primary
	if sub.Role == roleCross {
		delegate = p.cross
	}
	agg, err := runPrepared(ctx, delegate, sub.Pattern)
	return agg.Estimate, err
}

func (p ensemblePrepared) AggCard(subs []Subquery, cards []Card) Aggregate {
	agg := Aggregate{Estimate: cards[0].Value}
	for i, sub := range subs {
		if sub.Role != roleCross || cards[i].Err != nil {
			continue
		}
		agg.Checked = true
		agg.CrossEstimate = cards[i].Value
		agg.Divergence = divergenceRatio(agg.Estimate, agg.CrossEstimate)
		agg.Divergent = agg.Divergence >= p.threshold
	}
	return agg
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

// sourceTrees fetches the bound document source for a backend that needs
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

// Package sampling implements a sampling-based selectivity estimator in
// the style of Alley (Kim et al.): instead of reading a synopsis, it runs
// bounded random probes through the internal/twigjoin execution engine
// against the corpus documents themselves.
//
// The estimator samples root candidates uniformly from the label streams
// of every document, counts the matches anchored at each sampled
// candidate exactly, and scales by the inverse sampling fraction:
//
//	ŝ(q) = (Σ anchored matches) · N / n
//
// where N is the total number of root-label occurrences across the corpus
// and n the number of probes that completed. Each probe is exact, so the
// estimate is unbiased in n; the budgets trade variance for latency.
//
// Two budgets bound a probe run: a probe count (how many candidates are
// examined) and a node budget (how many candidate visits the twigjoin
// executions may perform in total, shared across probes). The run is also
// cooperatively cancellable: context errors abort it mid-probe, the same
// contract the decomposition estimators honor. Probes are deterministic —
// the candidate order derives from a per-query seed — so the same query
// against the same corpus always samples the same candidates.
package sampling

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
)

// ErrBudgetExhausted reports a probe run whose node budget ran out before
// a single probe completed; there is no sample to scale from. Runs that
// complete at least one probe return a (higher-variance) estimate instead.
var ErrBudgetExhausted = errors.New("sampling: node budget exhausted before any probe completed")

// Options bounds a probe run.
type Options struct {
	// Probes is the maximum number of root candidates examined per
	// estimate (default 64). When the query's root label occurs fewer
	// times than this, every occurrence is probed and the estimate is
	// exact.
	Probes int
	// MaxNodes is the candidate-visit budget (subset-DP steps of
	// same-label sibling groups included) shared across all probes of
	// one estimate (default 1<<20). A probe cut off mid-execution is
	// discarded; only completed probes enter the estimate.
	MaxNodes int64
	// Seed makes probe selection deterministic. The per-query candidate
	// order derives from Seed and the query's canonical key, so repeated
	// estimates of the same query sample identically.
	Seed int64
}

func (o *Options) fill() {
	if o.Probes <= 0 {
		o.Probes = 64
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 1 << 20
	}
}

// Estimator holds the per-document twigjoin indexes probes run on. Build
// one with New; it is immutable and safe for concurrent use.
type Estimator struct {
	idx  []*twigjoin.Index
	opts Options
}

// New returns an estimator probing the given per-document region
// indexes; pass a shared cache's entries (twigjoin.Indexer) so probing
// never builds an index of its own.
func New(idx []*twigjoin.Index, opts Options) (*Estimator, error) {
	if len(idx) == 0 {
		return nil, fmt.Errorf("sampling: no documents to probe")
	}
	opts.fill()
	return &Estimator{idx: idx, opts: opts}, nil
}

// Name identifies the estimator in experiment output.
func (e *Estimator) Name() string { return "sampling" }

// Estimate implements the uncancellable estimator shape.
func (e *Estimator) Estimate(q labeltree.Pattern) float64 {
	v, _ := e.EstimateContext(context.Background(), q)
	return v
}

// candidate is one (document, root node) probe site.
type candidate struct {
	doc  int
	node int32
}

// EstimateContext runs the probe plan for q within the budgets. It
// returns ctx.Err() if the context expires mid-run (matching the
// decomposition estimators' cancellation contract), ErrBudgetExhausted if
// the node budget ran out before any probe completed, and the scaled
// estimate otherwise.
func (e *Estimator) EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	root := q.Label(0)
	total := 0
	for _, x := range e.idx {
		total += len(x.Stream(root))
	}
	if total == 0 {
		return 0, nil
	}
	probes := e.opts.Probes
	if probes > total {
		probes = total
	}
	// Per-query deterministic candidate selection: Floyd's algorithm
	// draws `probes` distinct global indexes in O(probes) without
	// materializing the full candidate list.
	rng := rand.New(rand.NewSource(e.opts.Seed ^ keySeed(q.Key())))
	picked := make(map[int]struct{}, probes)
	order := make([]int, 0, probes)
	for j := total - probes; j < total; j++ {
		t := rng.Intn(j + 1)
		if _, dup := picked[t]; dup {
			t = j
		}
		picked[t] = struct{}{}
		order = append(order, t)
	}

	counter, err := twigjoin.NewCounter(twigjoin.MustQuery(q, nil), nil)
	if err != nil {
		return 0, fmt.Errorf("sampling: %w", err)
	}
	budget := e.opts.MaxNodes
	var matches int64
	completed := 0
	for _, g := range order {
		c := e.locate(root, g)
		n, err := counter.CountAnchoredContext(ctx, e.idx[c.doc], c.node, &budget)
		switch {
		case err == nil:
			matches += n
			completed++
		case errors.Is(err, twigjoin.ErrNodeBudget):
			// Partial probe: discard its count, keep what completed.
			if completed == 0 {
				return 0, ErrBudgetExhausted
			}
			return scale(matches, total, completed), nil
		default:
			return 0, err
		}
	}
	return scale(matches, total, completed), nil
}

// scale inflates the sampled match count by the inverse sampling
// fraction.
func scale(matches int64, total, completed int) float64 {
	return float64(matches) * float64(total) / float64(completed)
}

// locate maps a global candidate index onto its (document, node) probe
// site by walking the per-document root-label streams in order.
func (e *Estimator) locate(root labeltree.LabelID, g int) candidate {
	for doc, x := range e.idx {
		s := x.Stream(root)
		if g < len(s) {
			return candidate{doc: doc, node: s[g]}
		}
		g -= len(s)
	}
	panic("sampling: candidate index out of range")
}

// keySeed folds a canonical query key into a seed, so probe selection is
// a deterministic function of (base seed, query isomorphism class).
func keySeed(k labeltree.Key) int64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	return int64(h)
}

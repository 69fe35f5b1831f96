package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
)

// This file is the estimation seam: every method — the paper's
// decomposition estimators, the markov and treesketch baselines, sampling,
// and the ensemble cross-check — is an Estimator registered in a Registry,
// and the Summary routes every estimate through the same four-step
// pipeline:
//
//	Prepare(summary) → Decompose(query) → EstCard(subquery) → AggCard
//
// (the shape Alley uses for its sampling estimators). A Method is a
// registry key, not a switch arm; new backends drop in by registering.

// TreeSource supplies the corpus documents to backends that estimate from
// the trees themselves (markov, treesketch, sampling) rather than from
// the lattice summary. Trees must return documents in a stable order.
// *corpus.Corpus implements it; Build and BuildForestContext bind the
// built trees automatically.
type TreeSource interface {
	Trees() []*labeltree.Tree
}

// TreeSliceSource adapts a fixed slice of documents to TreeSource.
type TreeSliceSource []*labeltree.Tree

// Trees returns the slice.
func (s TreeSliceSource) Trees() []*labeltree.Tree { return s }

// Subquery is one unit of work a backend's Decompose step produced. Which
// fields are meaningful depends on the backend: decomposition methods emit
// a single whole-query subquery, markov emits weighted path terms,
// treesketch one subquery per document, and the ensemble tags its primary
// and cross-check runs by Role.
type Subquery struct {
	// Pattern is the twig this subquery estimates (the whole query for
	// most backends).
	Pattern labeltree.Pattern
	// Path is a root-to-node label path for path-term backends (markov).
	Path []labeltree.LabelID
	// Doc indexes into the TreeSource for per-document backends.
	Doc int
	// Weight is the subquery's exponent in a product aggregate: markov
	// leaf paths carry +1, branching-prefix corrections carry −(deg−1).
	Weight float64
	// Optional marks a subquery whose failure does not fail the whole
	// estimate (the ensemble's sampling cross-check under a blown
	// budget). Its error is recorded in the Card and left to AggCard.
	Optional bool
	// Role is a backend-private dispatch tag (the ensemble's "primary" /
	// "cross").
	Role string
}

// Card is one subquery's estimated cardinality, or the error that kept it
// from being estimated (only Optional subqueries reach AggCard with an
// error).
type Card struct {
	Value float64
	Err   error
}

// Aggregate is AggCard's combined answer. Estimate is always meaningful;
// the remaining fields are the ensemble's cross-check verdict and stay
// zero for single-estimate backends.
type Aggregate struct {
	Estimate float64
	// Checked reports that an independent cross-estimate completed.
	Checked bool
	// CrossEstimate is the cross-checking backend's answer.
	CrossEstimate float64
	// Divergence is the smoothed ratio (max+1)/(min+1) between the
	// primary and cross estimates; 1 means perfect agreement.
	Divergence float64
	// Divergent flags a divergence at or beyond the backend's threshold —
	// the query's primary estimate deserves suspicion.
	Divergent bool
}

// Capabilities describes what a backend supports, for the /v1/methods
// discovery endpoint and the degradation ladder.
type Capabilities struct {
	// SupportsFrozen: the backend works on summaries loaded with
	// ReadFrozen (no map-backed lattice).
	SupportsFrozen bool `json:"supports_frozen"`
	// SupportsBatch: the backend is safe to fan out across the batch
	// endpoint's worker pool.
	SupportsBatch bool `json:"supports_batch"`
	// Budgeted: the backend enforces an internal work budget (beyond
	// cooperative context cancellation) and can fail with
	// ErrBudgetExhausted.
	Budgeted bool `json:"budgeted"`
	// NeedsDocuments: Prepare requires a bound TreeSource.
	NeedsDocuments bool `json:"needs_documents"`
	// Fallback names the cheaper method the degradation ladder retries
	// with when this one blows its budget; empty means nothing cheaper
	// exists.
	Fallback Method `json:"fallback,omitempty"`
	// Description is a one-line human summary for discovery output.
	Description string `json:"description"`
}

// Prepared is a backend bound to one summary, ready to estimate. A
// Prepared must be safe for concurrent use: the batch endpoint fans
// queries across a worker pool sharing one instance.
type Prepared interface {
	// Decompose splits q into the backend's subqueries.
	Decompose(q labeltree.Pattern) ([]Subquery, error)
	// EstCard estimates one subquery's cardinality, honoring ctx
	// cooperatively.
	EstCard(ctx context.Context, sub Subquery) (float64, error)
	// AggCard combines the per-subquery cards, positionally aligned with
	// the subqueries Decompose returned.
	AggCard(subs []Subquery, cards []Card) Aggregate
}

// concurrentPrepared is implemented by Prepared backends whose subqueries
// should be estimated concurrently (the ensemble's primary + cross pair).
type concurrentPrepared interface {
	ConcurrentSubqueries() bool
}

// tracePrepared is implemented by Prepared backends that can produce the
// recursive decomposition's work trace.
type tracePrepared interface {
	EstimateWithTrace(q labeltree.Pattern) (float64, estimate.Trace)
}

// Estimator is a registered estimation backend — the factory side of the
// seam. Implementations must be stateless values; per-summary state lives
// in the Prepared they return.
type Estimator interface {
	// Method is the registry key clients select the backend by.
	Method() Method
	// Capabilities describes the backend for discovery and degradation.
	Capabilities() Capabilities
	// Prepare binds the backend to a summary (building synopses,
	// indexes, or tables as needed). The result is cached per summary
	// until it rebinds its document source.
	Prepare(ctx context.Context, s *Summary) (Prepared, error)
}

// Registry maps methods to backends. Lookups are concurrent with
// registration; serving reads take a read lock only.
type Registry struct {
	mu       sync.RWMutex
	backends map[Method]Estimator
	order    []Method
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{backends: make(map[Method]Estimator)}
}

// Register adds a backend, failing on duplicate method names.
func (r *Registry) Register(b Estimator) error {
	m := b.Method()
	if m == "" {
		return fmt.Errorf("core: backend with empty method name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.backends[m]; dup {
		return fmt.Errorf("core: method %q registered twice", m)
	}
	r.backends[m] = b
	r.order = append(r.order, m)
	return nil
}

// MustRegister is Register that panics on error (init-time wiring).
func (r *Registry) MustRegister(b Estimator) {
	if err := r.Register(b); err != nil {
		panic(err)
	}
}

// Lookup resolves a method to its backend. Unknown methods fail with an
// error wrapping ErrUnknownMethod that enumerates what is registered.
func (r *Registry) Lookup(m Method) (Estimator, error) {
	r.mu.RLock()
	b, ok := r.backends[m]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownMethod, m, r.methodList())
	}
	return b, nil
}

// Methods lists registered methods in registration order.
func (r *Registry) Methods() []Method {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Method, len(r.order))
	copy(out, r.order)
	return out
}

// methodList renders the registered method names sorted, for error
// messages.
func (r *Registry) methodList() string {
	r.mu.RLock()
	names := make([]string, 0, len(r.order))
	for _, m := range r.order {
		names = append(names, string(m))
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// DefaultRegistry holds the built-in backends. Summaries use it unless
// SetRegistry installs a private one.
var DefaultRegistry = NewRegistry()

// RegisteredMethods lists every method in the default registry, in
// registration order — the discovery surface; Methods() remains the
// paper's three decomposition strategies.
func RegisteredMethods() []Method { return DefaultRegistry.Methods() }

// registryFor resolves the summary's registry (default: DefaultRegistry).
func (s *Summary) registryFor() *Registry {
	if s.registry != nil {
		return s.registry
	}
	return DefaultRegistry
}

// SetRegistry installs a private backend registry on the summary. Call
// before serving; nil restores the default.
func (s *Summary) SetRegistry(r *Registry) { s.registry = r }

// Registry returns the registry the summary resolves methods against.
func (s *Summary) Registry() *Registry { return s.registryFor() }

// BindSource attaches the document source backends like markov,
// treesketch, and sampling prepare from. Build and BuildForestContext
// bind the built trees automatically; corpora bind themselves on open.
// Binding invalidates prepared backends, which may hold the old source.
func (s *Summary) BindSource(src TreeSource) {
	s.prepMu.Lock()
	s.source = src
	s.prepared = nil
	s.prepMu.Unlock()
}

// Source returns the bound document source, or nil.
func (s *Summary) Source() TreeSource {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return s.source
}

// LookupMethod validates a method against the summary's registry without
// preparing it — the cheap validation path for request handlers.
func (s *Summary) LookupMethod(m Method) (Capabilities, error) {
	b, err := s.registryFor().Lookup(m)
	if err != nil {
		return Capabilities{}, err
	}
	return b.Capabilities(), nil
}

// preparedFor returns the cached Prepared for method, preparing on first
// use. Preparation runs outside the lock (it may be expensive — sampling
// may index documents the shared cache has not seen), so two racing
// first uses may both prepare; the extra instance is dropped. The cache
// empties whenever the summary rebinds its source.
func (s *Summary) preparedFor(ctx context.Context, m Method) (Prepared, error) {
	s.prepMu.Lock()
	p, ok := s.prepared[m]
	s.prepMu.Unlock()
	if ok {
		return p, nil
	}
	b, err := s.registryFor().Lookup(m)
	if err != nil {
		return nil, err
	}
	p, err = b.Prepare(ctx, s)
	if err != nil {
		return nil, err
	}
	s.prepMu.Lock()
	if prev, ok := s.prepared[m]; ok {
		p = prev // lost the race; keep the instance others may already use
	} else {
		if s.prepared == nil {
			s.prepared = make(map[Method]Prepared)
		}
		s.prepared[m] = p
	}
	s.prepMu.Unlock()
	return p, nil
}

// runPrepared drives one estimate through a Prepared's
// Decompose → EstCard → AggCard pipeline. A non-Optional subquery error
// fails the estimate; Optional errors ride into AggCard on their Card.
// Sequential backends get a ctx poll between subqueries; backends that
// declare ConcurrentSubqueries have all subqueries estimated in parallel.
func runPrepared(ctx context.Context, p Prepared, q labeltree.Pattern) (Aggregate, error) {
	subs, err := p.Decompose(q)
	if err != nil {
		return Aggregate{}, err
	}
	cards := make([]Card, len(subs))
	if cp, ok := p.(concurrentPrepared); ok && cp.ConcurrentSubqueries() && len(subs) > 1 {
		var wg sync.WaitGroup
		for i := range subs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, err := p.EstCard(ctx, subs[i])
				cards[i] = Card{Value: v, Err: err}
			}(i)
		}
		wg.Wait()
		for i, c := range cards {
			if c.Err != nil && !subs[i].Optional {
				return Aggregate{}, c.Err
			}
		}
	} else {
		for i, sub := range subs {
			if err := ctx.Err(); err != nil {
				return Aggregate{}, err
			}
			v, err := p.EstCard(ctx, sub)
			if err != nil && !sub.Optional {
				return Aggregate{}, err
			}
			cards[i] = Card{Value: v, Err: err}
		}
	}
	return p.AggCard(subs, cards), nil
}

// Package core ties the paper's pieces into the TreeLattice system: build
// a lattice summary from a document by frequent-tree mining, estimate twig
// query selectivities by probabilistic decomposition, and prune
// δ-derivable patterns under a memory budget. A Summary is an immutable
// read view; documents change a corpus through the epoch pipeline
// (epoch.go), which publishes a new Summary per change.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/metrics"
	"treelattice/internal/mine"
	"treelattice/internal/twigjoin"
)

// Method selects an estimation strategy.
type Method string

// The estimation strategies evaluated in the paper.
const (
	// MethodRecursive removes one deterministic leaf pair per recursion
	// level (Section 3.2).
	MethodRecursive Method = "recursive"
	// MethodRecursiveVoting averages all admissible leaf pairs per level
	// (Section 3.2, voting extension). Most accurate, slowest.
	MethodRecursiveVoting Method = "recursive+voting"
	// MethodFixSized covers the query with K-subtrees in preorder
	// (Section 3.3). Fastest.
	MethodFixSized Method = "fix-sized"
)

// Methods returns the paper's estimation methods in presentation order.
// The full method table (markov and treesketches included) is
// RegisteredMethods().
func Methods() []Method {
	return []Method{MethodRecursive, MethodRecursiveVoting, MethodFixSized}
}

// MaxK caps the lattice level. Level-wise enumeration is exponential in
// K, and the paper's evaluation never goes beyond 5; the cap turns a
// runaway K into ErrKTooLarge instead of an out-of-memory build.
const MaxK = 16

// BuildOptions configures summary construction.
type BuildOptions struct {
	// K is the lattice level: all subtree patterns up to this size are
	// collected. Default 4, the paper's standard setting. Values beyond
	// MaxK are rejected with ErrKTooLarge.
	K int
	// Workers bounds the build's parallelism: candidate counting within
	// one document, and document fan-out in BuildForestContext. Zero
	// means GOMAXPROCS; 1 forces a sequential build.
	Workers int
	// Mining passes through to the miner. Its Workers field, when zero,
	// inherits the Workers setting above.
	Mining mine.Options
	// Timings, when non-nil, receives per-stage wall-clock measurements
	// of the build (mine, reduce).
	Timings *metrics.BuildTimings
}

// Summary is an immutable TreeLattice summary of one or more documents:
// a read view over exactly one estimate.Store. The store is the
// map-backed lattice a build mines, a frozen snapshot (flat arena + open
// addressing; see lattice.Frozen), a compressed snapshot (front-coded
// sorted blocks; see lattice.Compressed), or an epoch's base + delta
// merge. Freeze and Compress return new summaries over the snapshot
// forms. All backends answer identically, so switching is purely a
// space/speed decision.
type Summary struct {
	st   estimate.Store
	dict *labeltree.Dict

	// The whole-answer caches of the recursive and recursive+voting
	// methods (cache.go). Answers differ between the two, so each has
	// its own; the store never changes under them.
	recursiveAnswers, votingAnswers answerCache

	// prepMu guards source and the prepared-method cache; the cache
	// empties whenever the summary rebinds its source (see registry.go).
	prepMu   sync.Mutex
	source   TreeSource
	prepared map[Method]Prepared
	// indexer is the fallback per-document region-index cache for query
	// execution, created lazily when the bound source does not share one
	// (see exec.go). Guarded by prepMu.
	indexer *twigjoin.Indexer
}

// methodEstimator adapts a method to the estimate.Estimator /
// estimate.ContextEstimator shape callers hold — every call routes through
// EstimateContext, so it sees the same prepared methods and caches.
type methodEstimator struct {
	s      *Summary
	method Method
}

func (e methodEstimator) Estimate(q labeltree.Pattern) float64 {
	v, _ := e.EstimateContext(context.Background(), q)
	return v
}

func (e methodEstimator) EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error) {
	return e.s.EstimateContext(ctx, q, e.method)
}

func (e methodEstimator) Name() string { return string(e.method) }

var _ estimate.ContextEstimator = methodEstimator{}

// Build mines a K-lattice summary from t.
func Build(t *labeltree.Tree, opts BuildOptions) (*Summary, error) {
	return BuildContext(context.Background(), t, opts)
}

// BuildContext is Build with cancellation and deadline awareness: mining
// checks ctx between enumeration levels and while counting candidates, so
// a long build aborts promptly with ctx.Err() once ctx is done.
func BuildContext(ctx context.Context, t *labeltree.Tree, opts BuildOptions) (*Summary, error) {
	if err := checkOptions(&opts); err != nil {
		return nil, err
	}
	stop := opts.Timings.Start("mine")
	lat, err := mine.MineContext(ctx, t, opts.K, miningOptions(opts))
	stop()
	if err != nil {
		return nil, fmt.Errorf("core: building summary: %w", err)
	}
	return &Summary{st: lat, dict: t.Dict(), source: TreeSliceSource{t}}, nil
}

// BuildForestContext mines a shared summary of several documents in
// parallel: each tree is mined into a private shard lattice by a worker
// pool, and the shards are pairwise-reduced into one summary. All trees
// must share a dictionary. The result is bit-identical to mining the
// trees sequentially and merging in order, for any worker count.
func BuildForestContext(ctx context.Context, trees []*labeltree.Tree, opts BuildOptions) (*Summary, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("core: BuildForest needs at least one tree")
	}
	if err := checkOptions(&opts); err != nil {
		return nil, err
	}
	dict := trees[0].Dict()
	for _, t := range trees[1:] {
		if t.Dict() != dict {
			return nil, fmt.Errorf("%w: trees in a forest must share one dictionary", ErrDictMismatch)
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Split the budget: across documents first, leftover capacity into
	// each document's candidate counting (a single huge document still
	// uses every worker).
	inner := workers / len(trees)
	if inner < 1 {
		inner = 1
	}
	mo := miningOptions(opts)
	mo.Workers = inner

	shards := make([]*lattice.Summary, len(trees))
	errs := make([]error, len(trees))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	stop := opts.Timings.Start("mine")
	for i, t := range trees {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, t *labeltree.Tree) {
			defer wg.Done()
			defer func() { <-sem }()
			shards[i], errs[i] = mine.MineContext(ctx, t, opts.K, mo)
		}(i, t)
	}
	wg.Wait()
	stop()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: building summary: %w", err)
		}
	}
	stop = opts.Timings.Start("reduce")
	merged, err := lattice.Reduce(ctx, shards, workers)
	stop()
	if err != nil {
		return nil, fmt.Errorf("core: merging shards: %w", err)
	}
	return &Summary{st: merged, dict: dict, source: TreeSliceSource(trees)}, nil
}

// checkOptions applies defaults and validates the lattice level.
func checkOptions(opts *BuildOptions) error {
	if opts.K == 0 {
		opts.K = 4
	}
	if opts.K > MaxK {
		return fmt.Errorf("%w: K=%d exceeds MaxK=%d", ErrKTooLarge, opts.K, MaxK)
	}
	return nil
}

// miningOptions resolves the miner options, inheriting Workers.
func miningOptions(opts BuildOptions) mine.Options {
	mo := opts.Mining
	if mo.Workers == 0 {
		mo.Workers = opts.Workers
	}
	return mo
}

// FromLattice wraps an existing lattice summary.
func FromLattice(lat *lattice.Summary) *Summary {
	return &Summary{st: lat, dict: lat.Dict()}
}

// sized is implemented by every store backend that can report its
// accounted storage size and entry count (all three can).
type sized interface {
	SizeBytes() int
	Len() int
}

// derive returns a summary over st that keeps this summary's bound
// document source. Caches and prepared methods start empty: they
// belong to the store they were built against.
func (s *Summary) derive(st estimate.Store) *Summary {
	return &Summary{st: st, dict: s.dict, source: s.Source()}
}

// Freeze returns a summary over a read-optimized frozen snapshot of this
// summary's map-backed lattice. A summary that already reads from a
// snapshot (or a combining view) is returned unchanged.
func (s *Summary) Freeze() *Summary {
	lat := s.Lattice()
	if lat == nil {
		return s
	}
	return s.derive(lattice.Freeze(lat))
}

// Compress returns a summary over a compressed snapshot of this
// summary's map-backed lattice. A summary that already reads from a
// snapshot (or a combining view) is returned unchanged.
func (s *Summary) Compress() *Summary {
	lat := s.Lattice()
	if lat == nil {
		return s
	}
	return s.derive(lattice.Compress(lat))
}

// K returns the lattice level.
func (s *Summary) K() int { return s.st.K() }

// Dict returns the label dictionary queries must be parsed against.
func (s *Summary) Dict() *labeltree.Dict { return s.dict }

// Lattice exposes the underlying map-backed lattice summary. It is nil
// for summaries over any other store (snapshots, epochs).
func (s *Summary) Lattice() *lattice.Summary {
	lat, _ := s.st.(*lattice.Summary)
	return lat
}

// SizeBytes is the accounted storage size of the summary.
func (s *Summary) SizeBytes() int {
	if sz, ok := s.st.(sized); ok {
		return sz.SizeBytes()
	}
	return 0
}

// Patterns reports the number of stored pattern entries.
func (s *Summary) Patterns() int {
	if sz, ok := s.st.(sized); ok {
		return sz.Len()
	}
	return 0
}

// Estimator returns an estimator handle for method over this summary,
// validated against the method table. Every call on the handle routes
// through EstimateContext, sharing prepared methods and caches with it.
func (s *Summary) Estimator(method Method) (estimate.Estimator, error) {
	if _, err := lookupMethod(method); err != nil {
		return nil, err
	}
	return methodEstimator{s: s, method: method}, nil
}

// estimateVia answers one estimate with the method's prepared instance.
func (s *Summary) estimateVia(ctx context.Context, q labeltree.Pattern, method Method) (Aggregate, error) {
	row, err := lookupMethod(method)
	if err != nil {
		return Aggregate{}, err
	}
	p, err := s.preparedFor(ctx, row)
	if err != nil {
		return Aggregate{}, err
	}
	return p.Estimate(ctx, q)
}

// Estimate returns the estimated selectivity of q under method.
func (s *Summary) Estimate(q labeltree.Pattern, method Method) (float64, error) {
	return s.EstimateContext(context.Background(), q, method)
}

// EstimateContext is Estimate with cooperative cancellation: both built-in
// estimators poll ctx at bounded intervals during the decomposition
// recursion, so a deadline interrupts an expensive voting estimate
// mid-flight rather than merely gating entry.
func (s *Summary) EstimateContext(ctx context.Context, q labeltree.Pattern, method Method) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	agg, err := s.estimateVia(ctx, q, method)
	if err != nil {
		return 0, err
	}
	return agg.Estimate, nil
}

// DegradedEstimate is the result of EstimateStrict/EstimateDegradable:
// the answer, the method that actually produced it, and whether that
// method was a budget-forced downgrade from the one requested.
type DegradedEstimate struct {
	Aggregate
	Method   Method
	Degraded bool
}

// EstimateStrict estimates q under exactly the requested method —
// EstimateContext plus the result envelope, without the degradation
// ladder.
func (s *Summary) EstimateStrict(ctx context.Context, q labeltree.Pattern, method Method) (DegradedEstimate, error) {
	if err := ctx.Err(); err != nil {
		return DegradedEstimate{}, err
	}
	agg, err := s.estimateVia(ctx, q, method)
	if err != nil {
		return DegradedEstimate{}, err
	}
	return DegradedEstimate{Aggregate: agg, Method: method}, nil
}

// EstimateDegradable estimates q under method within ctx's budget; if the
// deadline passes mid-estimate and the method declares a cheaper
// fallback, it re-runs under the fallback instead of failing. The
// fallback runs outside the expired deadline (the request already paid
// for an answer; a degraded one beats a 504) but still honors the
// caller's cancellation — a client that hung up gets context.Canceled,
// never a degraded answer it will not read.
func (s *Summary) EstimateDegradable(ctx context.Context, q labeltree.Pattern, method Method) (DegradedEstimate, error) {
	res, err := s.EstimateStrict(ctx, q, method)
	if err == nil {
		return res, nil
	}
	fb, ok := Fallback(method)
	if !ok || !errors.Is(err, context.DeadlineExceeded) {
		return DegradedEstimate{}, err
	}
	// Drop the expired deadline but keep cancellation semantics: parent
	// cancellation no longer propagates through WithoutCancel, so the
	// fallback run completes unconditionally.
	res, err = s.EstimateStrict(context.WithoutCancel(ctx), q, fb)
	if err != nil {
		return DegradedEstimate{}, err
	}
	res.Degraded = true
	return res, nil
}

// EstimateQuery parses a twig query in the "a(b,c(d))" syntax and
// estimates its selectivity. Parse failures wrap ErrBadQuery; queries
// naming labels the dictionary has never seen wrap ErrUnknownLabel (their
// true selectivity is zero).
func (s *Summary) EstimateQuery(query string, method Method) (float64, error) {
	return s.EstimateQueryContext(context.Background(), query, method)
}

// EstimateQueryContext is EstimateQuery with cancellation.
func (s *Summary) EstimateQueryContext(ctx context.Context, query string, method Method) (float64, error) {
	q, err := s.ParseQuery(query)
	if err != nil {
		return 0, err
	}
	return s.EstimateContext(ctx, q, method)
}

// ParseQuery parses a twig query against the summary's dictionary,
// classifying failures: syntax errors wrap ErrBadQuery, and labels the
// dictionary has never seen wrap ErrUnknownLabel. It interns nothing,
// so queries — however many unseen labels they name — never grow the
// dictionary the summary shares with its corpus.
func (s *Summary) ParseQuery(query string) (labeltree.Pattern, error) {
	q, err := labeltree.ParseKnownPattern(query, s.dict)
	if err != nil {
		return labeltree.Pattern{}, parseError(err)
	}
	return q, nil
}

// parseError classifies a lookup-only parse failure: a label missing
// from the dictionary wraps ErrUnknownLabel, anything else ErrBadQuery.
func parseError(err error) error {
	var unknown *labeltree.UnknownLabelError
	if errors.As(err, &unknown) {
		return fmt.Errorf("%w: %q", ErrUnknownLabel, unknown.Label)
	}
	return fmt.Errorf("%w: %v", ErrBadQuery, err)
}

// EstimateWithTrace estimates q and returns the work record: memo and
// lattice hits, lattice misses, reconstructions, and the recursion
// depth over which independence assumptions compounded. It always runs
// the full decomposition, never the answer cache, so the record
// describes the estimate's own work. Only the recursive methods support
// it.
func (s *Summary) EstimateWithTrace(q labeltree.Pattern, method Method) (float64, estimate.Trace, error) {
	if method != MethodRecursive && method != MethodRecursiveVoting {
		if _, err := lookupMethod(method); err != nil {
			return 0, estimate.Trace{}, err
		}
		return 0, estimate.Trace{}, fmt.Errorf("core: method %q does not support traces", method)
	}
	est, tr := s.recursive(method).EstimateWithTrace(q)
	return est, tr, nil
}

// Explain is the recursive+voting estimate of q with its work record (as
// EstimateWithTrace) and its decomposition-choice spread [Lo, Hi]: how
// much the answer varies across admissible decompositions, an indicator
// of how hard the conditional-independence assumption is working. One
// recursion yields all three; like EstimateWithTrace it never reads the
// answer cache. The recursion polls ctx at bounded intervals and fails
// with ctx.Err() once it is done.
func (s *Summary) Explain(ctx context.Context, q labeltree.Pattern) (float64, estimate.Trace, estimate.Interval, error) {
	return s.recursive(MethodRecursiveVoting).ExplainContext(ctx, q)
}

// Prune returns a copy of the summary without δ-derivable patterns
// (Section 4.3). delta is a relative tolerance; 0 prunes only patterns
// whose decomposition estimate is exact. A summary over any store but
// the map-backed lattice is returned unchanged: pruning needs the map.
func (s *Summary) Prune(delta float64) *Summary {
	lat := s.Lattice()
	if lat == nil {
		return s
	}
	return &Summary{st: estimate.PruneDerivable(lat, delta), dict: s.dict}
}

// WriteTo serializes the summary in the TLAT form, from whichever store
// it holds.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	lat, err := s.asLattice()
	if err != nil {
		return 0, err
	}
	return lat.WriteTo(w)
}

// Read deserializes a summary written by WriteTo, interning labels into
// dict.
func Read(r io.Reader, dict *labeltree.Dict) (*Summary, error) {
	lat, err := lattice.Read(r, dict)
	if err != nil {
		return nil, err
	}
	return &Summary{st: lat, dict: dict}, nil
}

// ReadFrozen deserializes a summary straight into the read-optimized
// frozen representation, never materializing the map backend. Its
// lookups are allocation-free — the load path for serving replicas.
func ReadFrozen(r io.Reader, dict *labeltree.Dict) (*Summary, error) {
	f, err := lattice.ReadFrozen(r, dict)
	if err != nil {
		return nil, err
	}
	return &Summary{st: f, dict: dict}, nil
}

// Package estimate implements the paper's probabilistic decomposition
// framework (Section 3): estimating the selectivity of a twig query from
// the counts of its subtrees stored in a lattice summary.
//
// The foundation is Theorem 1: if T1 and T2 share a common part T and each
// extends T by one distinct edge, then under the assumption that the two
// extensions grow conditionally independently,
//
//	ŝ(T1 ∪ T2) = s(T1) · s(T2) / s(T).
//
// Lemma 1 generalizes this to any pair of subtrees T1, T2 with
// |T1 ∩ T2| = |T1| + |T2| − 1. Two concrete estimators apply it:
//
//   - Recursive decomposition (Section 3.2, Figure 4): remove two degree-1
//     nodes of the query to obtain T1, T2 one node smaller and their
//     common part two nodes smaller, and recurse until patterns fit in the
//     lattice. An optional voting extension averages the estimates of all
//     admissible leaf pairs at each level.
//   - Fix-sized decomposition (Section 3.3, Figure 5, Lemmas 2–3): cover
//     the query in preorder with n−K+1 K-subtrees whose consecutive
//     overlaps are (K−1)-subtrees, and take Π s(Ti) / Π s(overlap_i).
package estimate

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// Estimator is a selectivity estimator for twig queries.
type Estimator interface {
	// Estimate returns the estimated number of matches of q. Estimates
	// are non-negative and may be fractional.
	Estimate(q labeltree.Pattern) float64
	// Name identifies the estimator in experiment output.
	Name() string
}

// ContextEstimator is implemented by estimators whose evaluation polls the
// context at bounded intervals, so per-request deadlines interrupt an
// expensive decomposition instead of letting it run to completion. Both
// built-in estimators implement it.
type ContextEstimator interface {
	Estimator
	// EstimateContext is Estimate with cooperative cancellation: it
	// returns ctx.Err() once ctx is done, checked at bounded intervals
	// during the decomposition recursion.
	EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error)
}

// Store is the pattern-count source estimators read from. *lattice.Summary
// is the canonical implementation; the online tuner overlays corrections
// on top of one.
type Store interface {
	// Count returns the stored count for p and whether p is present.
	Count(p labeltree.Pattern) (int64, bool)
	// CountKey is Count for a precomputed canonical key. The
	// decomposition engine keys every pattern exactly once (the key is
	// also its memo identity), so stores must answer by key without
	// re-encoding.
	CountKey(key labeltree.Key) (int64, bool)
	// K is the size up to which the store is authoritative: a missing
	// pattern of size ≤ K either does not occur (complete store) or is
	// derivable (pruned store).
	K() int
	// Pruned reports whether missing in-range patterns may be derivable
	// rather than absent.
	Pruned() bool
}

var _ Store = (*lattice.Summary)(nil)
var _ Store = (*lattice.Frozen)(nil)
var _ Store = (*lattice.Compressed)(nil)

// Augment applies Theorem 1 / Lemma 1: the expected count of the union of
// two subtrees with counts s1 and s2 whose common part has count common.
// A zero common part makes the union impossible and yields 0. The
// result saturates (see Saturate).
func Augment(s1, s2, common float64) float64 {
	if common <= 0 {
		return 0
	}
	return Saturate(s1 * s2 / common)
}

// Saturate returns x where it is finite and math.MaxFloat64 where it is
// not. Every estimator passes its products, quotients, sums and averages
// through it, so an estimate that overflows float64 (a star of a hundred
// same-label leaves can) saturates instead of answering +Inf, or NaN
// once two infinities meet, while every finite result keeps its bits.
func Saturate(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

// Trace records how an estimate was produced, supporting the paper's
// future-work direction of attaching confidence information to estimates:
// deeper recursion and more misses mean more compounded independence
// assumptions.
//
// Every sub-twig the engine looks up is answered by exactly one of the
// per-estimate memo, the summary, or decomposition, so its lookups equal
// MemoHits + LatticeHits + LatticeMisses: one for the query plus three per
// augmentation.
type Trace struct {
	// MemoHits counts lookups answered from the estimate's own memo: a
	// sub-twig that an earlier decomposition of the same query already
	// resolved (Alley's num_memoi_).
	MemoHits int
	// LatticeHits counts lookups answered directly from the summary.
	LatticeHits int
	// LatticeMisses counts patterns that had to be decomposed.
	LatticeMisses int
	// Reconstructions counts in-range patterns rebuilt because the
	// summary was pruned.
	Reconstructions int
	// Augmentations counts applications of the Theorem 1 formula.
	Augmentations int
	// MaxDepth is the deepest decomposition recursion reached — the
	// number of independence assumptions compounded on the worst path.
	MaxDepth int
}

// VotingScheme selects how the voting extension aggregates the estimates
// of the admissible leaf pairs at each level. The paper averages and
// leaves "different voting schemes ... accounting for higher order
// statistical moments" as an open question; Median and TrimmedMean are
// robust alternatives that down-weight outlier decompositions.
type VotingScheme uint8

// The implemented voting schemes.
const (
	// Mean averages all pair estimates (the paper's scheme).
	Mean VotingScheme = iota
	// Median takes the middle pair estimate.
	Median
	// TrimmedMean drops the lowest and highest quartile of pair
	// estimates before averaging (falls back to Mean below 4 pairs).
	TrimmedMean
)

func (v VotingScheme) String() string {
	switch v {
	case Median:
		return "median"
	case TrimmedMean:
		return "trimmed-mean"
	default:
		return "mean"
	}
}

// Recursive is the recursive decomposition estimator of Section 3.2, with
// the optional voting extension. The zero value is not ready to use; set
// Sum or use NewRecursive.
type Recursive struct {
	Sum Store
	// Voting aggregates the estimates of all admissible leaf pairs at
	// each recursion level instead of using one canonical pair.
	Voting bool
	// Scheme selects the voting aggregate (default Mean, the paper's).
	Scheme VotingScheme
}

// NewRecursive returns a recursive decomposition estimator over sum.
func NewRecursive(sum Store, voting bool) *Recursive {
	return &Recursive{Sum: sum, Voting: voting}
}

// Name implements Estimator.
func (r *Recursive) Name() string {
	if r.Voting {
		return "recursive+voting"
	}
	return "recursive"
}

// Estimate implements Estimator.
func (r *Recursive) Estimate(q labeltree.Pattern) float64 {
	est, _ := r.run(nil, q.Key(), q.Size(), nil, nil)
	return est
}

// EstimateContext implements ContextEstimator: the decomposition recursion
// polls ctx every ctxOpsInterval memo operations and unwinds with ctx.Err()
// once the context is done.
func (r *Recursive) EstimateContext(ctx context.Context, q labeltree.Pattern) (float64, error) {
	return r.run(ctx, q.Key(), q.Size(), nil, nil)
}

// EstimateKeyContext is EstimateContext for a query given by its
// canonical key and size, for callers that already keyed it (a cache in
// front of the estimator).
func (r *Recursive) EstimateKeyContext(ctx context.Context, key labeltree.Key, size int) (float64, error) {
	return r.run(ctx, key, size, nil, nil)
}

// EstimateWithTrace is Estimate plus a record of the work performed.
func (r *Recursive) EstimateWithTrace(q labeltree.Pattern) (float64, Trace) {
	var tr Trace
	est, _ := r.run(nil, q.Key(), q.Size(), &tr, nil)
	return est, tr
}

// ExplainContext is EstimateWithTrace plus the estimate's
// decomposition-choice interval (see Interval), all from one recursion,
// with EstimateContext's cooperative cancellation. Only voting levels
// weigh every decomposition, so a non-voting estimator reports the point
// interval at its estimate.
func (r *Recursive) ExplainContext(ctx context.Context, q labeltree.Pattern) (float64, Trace, Interval, error) {
	var tr Trace
	var iv Interval
	est, err := r.run(ctx, q.Key(), q.Size(), &tr, &iv)
	if err != nil {
		return 0, Trace{}, Interval{}, err
	}
	return est, tr, iv, nil
}

// run estimates the query keyed key of size nodes, polling ctx when it
// is non-nil, recording into tr when it is non-nil, and storing the
// estimate's interval in iv when it is non-nil.
func (r *Recursive) run(ctx context.Context, key labeltree.Key, size int, tr *Trace, iv *Interval) (float64, error) {
	e := engine{sum: r.Sum, voting: r.Voting, scheme: r.Scheme,
		memo: make(map[labeltree.Key]float64), tr: tr, ctx: ctx}
	if iv != nil {
		e.spread = make(map[labeltree.Key]Interval)
	}
	defer e.release()
	est := e.estimateKeyed(key, size, 0)
	if e.ctxErr != nil {
		return 0, e.ctxErr
	}
	if iv != nil {
		*iv = e.interval(key, est)
	}
	return est, nil
}

// ctxOpsInterval is how many estimateKeyed entries pass between context
// polls. Each entry does map work and possibly a decomposition enumeration,
// so 64 entries bound the post-cancellation overrun to well under a
// millisecond on realistic queries.
const ctxOpsInterval = 64

// engine is the shared decomposition evaluator: the recursive estimator
// itself, the fallback used for derivable patterns missing from pruned
// lattices, and the subroutine of the pruning algorithm. It recurses over
// canonical keys and sizes: a sub-twig is a key until the engine must
// decompose it, and even then LeafSplicer reads its leaves from the key.
type engine struct {
	sum    Store
	voting bool
	scheme VotingScheme
	memo   map[labeltree.Key]float64
	tr     *Trace

	// spread, when non-nil, holds the decomposition-choice interval of
	// every sub-twig decomposed at a voting level; every other sub-twig's
	// interval is the point at its estimate (see interval).
	spread map[labeltree.Key]Interval

	// ctx, when non-nil, is polled every ctxOpsInterval estimateKeyed
	// entries; on cancellation ctxErr latches and the recursion unwinds
	// immediately, returning 0 at every level.
	ctx    context.Context
	ops    int
	ctxErr error

	// sc is pooled decomposition scratch, taken on the first
	// decomposition and returned by release.
	sc *scratch
}

// scratch is the engine state reused across estimates: the decomposition
// enumerator, and two stacks on which each recursion level pushes its
// decompositions and pair estimates and pops them before returning.
type scratch struct {
	dec   decomposer
	ds    []decomposition
	votes []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns the engine's scratch to the pool. Every level pops what
// it pushed, cancelled ones included, so the stacks are empty again once
// the outermost estimateKeyed returns; only a panic can leave entries,
// and truncating keeps such a scratch reusable.
func (e *engine) release() {
	if e.sc == nil {
		return
	}
	e.sc.ds, e.sc.votes = e.sc.ds[:0], e.sc.votes[:0]
	scratchPool.Put(e.sc)
	e.sc = nil
}

func (e *engine) estimate(q labeltree.Pattern) float64 {
	return e.estimateKeyed(q.Key(), q.Size(), 0)
}

// stopped counts one unit of work and reports whether the context has
// expired, polling it every ctxOpsInterval units: the very first unit
// polls, so an already-expired budget fails fast before any work.
func (e *engine) stopped() bool {
	if e.ctx == nil {
		return false
	}
	if e.ctxErr != nil {
		return true
	}
	e.ops++
	if e.ops%ctxOpsInterval == 1 {
		if err := e.ctx.Err(); err != nil {
			e.ctxErr = err
			return true
		}
	}
	return false
}

// estimateKeyed estimates the sub-twig with canonical key key and size
// nodes.
func (e *engine) estimateKeyed(key labeltree.Key, size, depth int) float64 {
	if e.stopped() {
		return 0
	}
	if e.tr != nil && depth > e.tr.MaxDepth {
		e.tr.MaxDepth = depth
	}
	if v, ok := e.memo[key]; ok {
		if e.tr != nil {
			e.tr.MemoHits++
		}
		return v
	}
	if c, ok := e.sum.CountKey(key); ok {
		if e.tr != nil {
			e.tr.LatticeHits++
		}
		e.memo[key] = float64(c)
		return float64(c)
	}
	if e.tr != nil {
		e.tr.LatticeMisses++
	}
	// Missing from the lattice. Sizes 1–2 are never pruned, so a missing
	// small pattern does not occur in the data at all. The same holds for
	// any in-range size when the lattice is complete.
	if size <= 2 || (size <= e.sum.K() && !e.sum.Pruned()) {
		e.memo[key] = 0
		return 0
	}
	voting := e.voting
	if size <= e.sum.K() {
		// In range but pruned as derivable: reconstruct with the same
		// canonical single-pair decomposition the pruning criterion
		// (Definition 2) was evaluated with, so pruned and full summaries
		// agree under every estimator. The reconstruction only touches
		// other in-range patterns, so the shared memo stays consistent.
		voting = false
		if e.tr != nil {
			e.tr.Reconstructions++
		}
	}
	if e.sc == nil {
		e.sc = scratchPool.Get().(*scratch)
	}
	// Push this level's decompositions; deeper levels push above them and
	// pop back before returning, so ds stays intact across the loop.
	base := len(e.sc.ds)
	if voting {
		e.sc.ds = e.sc.dec.appendAll(e.sc.ds, key)
	} else {
		e.sc.ds = append(e.sc.ds, e.sc.dec.first(key)) // canonically smallest
	}
	ds := e.sc.ds[base:]
	saved := e.voting
	e.voting = voting
	spread := voting && e.spread != nil
	iv := Interval{math.Inf(1), math.Inf(-1)}
	vbase := len(e.sc.votes)
	for _, d := range ds {
		s1 := e.estimateKeyed(d.lo, size-1, depth+1)
		s2 := e.estimateKeyed(d.hi, size-1, depth+1)
		sc := e.estimateKeyed(d.common, size-2, depth+1)
		e.sc.votes = append(e.sc.votes, Augment(s1, s2, sc))
		if e.tr != nil {
			e.tr.Augmentations++
		}
		if spread {
			iv = iv.hull(pairBounds(e.interval(d.lo, s1), e.interval(d.hi, s2), e.interval(d.common, sc)))
		}
	}
	e.voting = saved
	est := aggregate(e.sc.votes[vbase:], e.scheme)
	e.sc.votes = e.sc.votes[:vbase]
	e.sc.ds = e.sc.ds[:base]
	e.memo[key] = est
	if spread {
		e.spread[key] = iv
	}
	return est
}

// interval returns the decomposition-choice interval of the sub-twig
// keyed key, whose estimate is est: the interval its voting level
// recorded, or the point at est for a sub-twig the lattice answered or
// reported absent, or that was reconstructed with the single canonical
// pair after pruning.
func (e *engine) interval(key labeltree.Key, est float64) Interval {
	if iv, ok := e.spread[key]; ok {
		return iv
	}
	return Interval{est, est}
}

// aggregate combines the per-pair vote estimates under the scheme.
func aggregate(votes []float64, scheme VotingScheme) float64 {
	if len(votes) == 1 {
		return votes[0]
	}
	switch scheme {
	case Median:
		s := append([]float64(nil), votes...)
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return s[mid]
		}
		return Saturate((s[mid-1] + s[mid]) / 2)
	case TrimmedMean:
		if len(votes) < 4 {
			break
		}
		s := append([]float64(nil), votes...)
		sort.Float64s(s)
		cut := len(s) / 4
		return mean(s[cut : len(s)-cut])
	}
	return mean(votes)
}

// mean is the saturating average of votes.
func mean(votes []float64) float64 {
	var sum float64
	for _, v := range votes {
		sum += v
	}
	return Saturate(sum / float64(len(votes)))
}

// decomposition is one leaf-pair removal, as canonical keys: the pattern
// minus one leaf of the pair (lo) and minus the other (hi), ordered so
// lo ≤ hi, and the common part minus both. The fields are also its
// signature, compared field-wise: the order is invariant under isomorphic
// renumbering, and which leaf of the pair is T1 does not matter, since
// Theorem 1's product is symmetric in T1 and T2.
type decomposition struct {
	lo, hi, common labeltree.Key
}

func compareDecompositions(a, b decomposition) int {
	if c := strings.Compare(string(a.lo), string(b.lo)); c != 0 {
		return c
	}
	if c := strings.Compare(string(a.hi), string(b.hi)); c != 0 {
		return c
	}
	return strings.Compare(string(a.common), string(b.common))
}

// decomposer enumerates the leaf-pair decompositions of a pattern given
// by its key. Its order matters: δ-derivable pruning verifies a pattern
// against the canonically first decomposition, and query-time
// reconstruction meets the same pattern under another numbering; both
// must pick the same one. Every enumeration completes before the engine
// descends, so one decomposer serves a whole recursion.
type decomposer struct {
	ls      labeltree.LeafSplicer
	removed []labeltree.Key // removed[i]: the pattern minus its i-th leaf
}

// reset reads the pattern keyed k and derives each single-leaf removal
// key once, returning the leaves.
func (d *decomposer) reset(k labeltree.Key) []int32 {
	d.ls.Reset(k)
	leaves := d.ls.Leaves()
	d.removed = d.removed[:0]
	for _, l := range leaves {
		d.removed = append(d.removed, d.ls.RemoveKey(l))
	}
	return leaves
}

// appendAll appends every admissible leaf-pair decomposition of the
// pattern keyed k to ds, in canonical signature order.
func (d *decomposer) appendAll(ds []decomposition, k labeltree.Key) []decomposition {
	leaves := d.reset(k)
	base := len(ds)
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			lo, hi := d.removed[i], d.removed[j]
			if hi < lo {
				lo, hi = hi, lo
			}
			ds = append(ds, decomposition{lo: lo, hi: hi, common: d.ls.RemoveTwoKey(leaves[i], leaves[j])})
		}
	}
	slices.SortFunc(ds[base:], compareDecompositions)
	return ds
}

// first returns the canonically smallest decomposition of the pattern
// keyed k: appendAll's first element. Common keys only break ties on
// (lo, hi), so only tied pairs derive one.
func (d *decomposer) first(k labeltree.Key) decomposition {
	leaves := d.reset(k)
	var best decomposition
	bi, bj := -1, -1
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			lo, hi := d.removed[i], d.removed[j]
			if hi < lo {
				lo, hi = hi, lo
			}
			switch {
			case bi < 0 || lo < best.lo || (lo == best.lo && hi < best.hi):
				best, bi, bj = decomposition{lo: lo, hi: hi}, i, j
			case lo == best.lo && hi == best.hi:
				if best.common == "" {
					best.common = d.ls.RemoveTwoKey(leaves[bi], leaves[bj])
				}
				if c := d.ls.RemoveTwoKey(leaves[i], leaves[j]); c < best.common {
					best.common, bi, bj = c, i, j
				}
			}
		}
	}
	if best.common == "" {
		best.common = d.ls.RemoveTwoKey(leaves[bi], leaves[bj])
	}
	return best
}

// lookup resolves a pattern count against the lattice, falling back to
// recursive decomposition when the lattice is pruned (Lemma 5: δ-derivable
// patterns can be removed without changing estimates because they are
// reconstructed on demand).
func lookup(sum Store, key labeltree.Key, size int, memo map[labeltree.Key]float64) float64 {
	e := engine{sum: sum, memo: memo}
	defer e.release()
	return e.estimateKeyed(key, size, 0)
}

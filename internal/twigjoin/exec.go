package twigjoin

import (
	"context"
	"errors"
	"sync"

	"treelattice/internal/labeltree"
)

// ErrNodeBudget reports an execution stopped because it exhausted its
// candidate-visit budget. Query execution branches on it with errors.Is
// to tell "ran out of budget", a partial answer it reports as degraded,
// from "the context was canceled", which fails the request.
var ErrNodeBudget = errors.New("twigjoin: node budget exhausted")

// Match is one query answer: Match[i] is the data node bound to query
// node i. The slice passed to emit callbacks is reused between calls;
// copy it to retain.
type Match []int32

// Stats reports the work an execution performed — the planner's cost
// signal.
type Stats struct {
	// Candidates is the number of data nodes considered for binding.
	Candidates int64
	// Matches is the number of matches produced or counted.
	Matches int64
}

// execScratch is the per-execution working set, pooled so steady-state
// executions allocate nothing: the bind order, assignment and region
// slices are sized to the query, the used bitmap to the data tree
// (cleared lazily through usedStack, so reuse costs O(marks), not
// O(tree)).
type execScratch struct {
	order     []int32
	assigned  []int32
	pos       []int32         // validateOrder scratch
	regions   []*labelRegions // per query node, resolved once per execution
	used      []bool          // indexed by data node id
	usedStack []int32         // nodes currently marked, stack-disciplined
}

var scratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// acquireScratch readies a working set for q over x's document.
func acquireScratch(x *Index, q Query) *execScratch {
	s := scratchPool.Get().(*execScratch)
	querySize, treeSize := q.Pattern.Size(), x.tree.Size()
	if cap(s.order) < querySize {
		s.order = make([]int32, querySize)
		s.assigned = make([]int32, querySize)
		s.pos = make([]int32, querySize)
		s.regions = make([]*labelRegions, querySize)
	}
	s.order = s.order[:querySize]
	s.assigned = s.assigned[:querySize]
	s.pos = s.pos[:querySize]
	s.regions = s.regions[:querySize]
	for i := range s.regions {
		s.regions[i] = x.regions[q.Pattern.Label(int32(i))]
	}
	if cap(s.used) < treeSize {
		s.used = make([]bool, treeSize)
	}
	s.used = s.used[:treeSize]
	return s
}

func releaseScratch(s *execScratch) {
	// Executions unmark on unwind even when stopping early; clear
	// whatever a panicking emit left marked.
	for _, v := range s.usedStack {
		s.used[v] = false
	}
	s.usedStack = s.usedStack[:0]
	clear(s.regions) // keep no index alive from the pool
	scratchPool.Put(s)
}

// Enumerate streams every match of q to emit in a deterministic order,
// binding query nodes in the given bind order (nil = stored numbering,
// which is parent-before-child). It stops early if emit returns false.
func Enumerate(x *Index, q Query, bindOrder []int32, emit func(Match) bool) Stats {
	st, _ := EnumerateContext(nil, x, q, bindOrder, nil, emit)
	return st
}

// EnumerateContext is Enumerate under cooperative control: ctx (when
// non-nil) is polled every budgetPollInterval candidate visits, and
// nodeBudget (when non-nil) is decremented per candidate visit, stopping
// the execution with ErrNodeBudget at zero. The budget is shared across
// calls through the pointer, so one budget can cover a whole corpus scan.
// The stats accumulated up to the stop are returned alongside the error,
// so a truncated execution still reports the work it did.
func EnumerateContext(ctx context.Context, x *Index, q Query, bindOrder []int32, nodeBudget *int64, emit func(Match) bool) (Stats, error) {
	if ctx != nil {
		// Fail fast: the periodic poll below only fires every
		// budgetPollInterval visits.
		if err := ctx.Err(); err != nil {
			return Stats{}, err
		}
	}
	scratch := acquireScratch(x, q)
	defer releaseScratch(scratch)
	if bindOrder == nil {
		for i := range scratch.order {
			scratch.order[i] = int32(i)
		}
	} else {
		copy(scratch.order, bindOrder)
	}
	validateOrder(q.Pattern, scratch.order, scratch.pos)
	e := executor{x: x, q: q, order: scratch.order, scratch: scratch, ctx: ctx, budget: nodeBudget}
	e.run(0, emit)
	return e.stats, e.err
}

// budgetPollInterval is how many candidate visits pass between context
// polls in budgeted executions. Each visit does at worst a bitmap probe
// and a recursion step, so 256 visits bound the post-cancellation overrun
// to well under a millisecond.
const budgetPollInterval = 256

// validateOrder checks that order is a permutation binding parents before
// children, using pos as scratch.
func validateOrder(p labeltree.Pattern, order []int32, pos []int32) {
	if len(order) != p.Size() {
		panic("twigjoin: bind order has wrong length")
	}
	for i := range pos {
		pos[i] = -1
	}
	for at, n := range order {
		if n < 0 || int(n) >= p.Size() || pos[n] != -1 {
			panic("twigjoin: bind order is not a permutation")
		}
		pos[n] = int32(at)
	}
	for i := int32(1); int(i) < p.Size(); i++ {
		if pos[i] < pos[p.Parent(i)] {
			panic("twigjoin: bind order binds a child before its parent")
		}
	}
}

type executor struct {
	x       *Index
	q       Query
	order   []int32
	scratch *execScratch
	stats   Stats
	stopped bool

	// ctx and budget, when set, make the execution cooperative: ctx is
	// polled every budgetPollInterval candidate visits, and budget is
	// decremented per visit. err latches the stop reason.
	ctx    context.Context
	budget *int64
	err    error
}

func (e *executor) mark(v int32) {
	e.scratch.used[v] = true
	e.scratch.usedStack = append(e.scratch.usedStack, v)
}

func (e *executor) unmark(v int32) {
	e.scratch.used[v] = false
	e.scratch.usedStack = e.scratch.usedStack[:len(e.scratch.usedStack)-1]
}

func (e *executor) run(depth int, emit func(Match) bool) {
	if e.stopped {
		return
	}
	if depth == len(e.order) {
		e.stats.Matches++
		if !emit(Match(e.scratch.assigned)) {
			e.stopped = true
		}
		return
	}
	qn := e.order[depth]
	var candidates []int32
	if par := e.q.Pattern.Parent(qn); par < 0 {
		candidates = e.x.roots(e.q)
	} else {
		candidates = e.x.probe(e.scratch.regions[qn], e.scratch.assigned[par], e.q.Axes[qn])
	}
	for _, v := range candidates {
		e.stats.Candidates++
		if e.budget != nil {
			if *e.budget <= 0 {
				e.err = ErrNodeBudget
				e.stopped = true
				return
			}
			*e.budget--
		}
		if e.ctx != nil && e.stats.Candidates%budgetPollInterval == 0 {
			if err := e.ctx.Err(); err != nil {
				e.err = err
				e.stopped = true
				return
			}
		}
		if e.scratch.used[v] {
			continue
		}
		e.mark(v)
		e.scratch.assigned[qn] = v
		e.run(depth+1, emit)
		e.unmark(v)
		if e.stopped {
			return
		}
	}
}

package twigjoin

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"treelattice/internal/labeltree"
)

// budgetChunk is how many node-budget units a worker of a corpus pass
// draws from the shared budget at a time: enough that drawing is rare
// next to the work the units pay for, few enough that what the workers
// hold unspent when the budget runs dry stays small beside a budget.
const budgetChunk = 4096

// refill tops budget up from pool so that it covers n units, drawing at
// least budgetChunk at a time, and reports whether it now does. A pool
// that runs dry short of that gives what it holds; a nil pool gives
// nothing.
func refill(budget *int64, pool *atomic.Int64, n int64) bool {
	if pool == nil {
		return false
	}
	want := max(budgetChunk, n-*budget)
	for {
		have := pool.Load()
		d := min(have, want)
		if d <= 0 {
			return false
		}
		if pool.CompareAndSwap(have, have-d) {
			*budget += d
			return *budget >= n
		}
	}
}

// CorpusCount is the outcome of counting one query over a list of
// documents.
type CorpusCount struct {
	// Counts holds each document's matches, in input order. A document a
	// stop cut short holds what was counted before the stop; one the
	// pass never reached holds 0.
	Counts []int64
	// Stats sums the documents' work; Matches is the sum of Counts,
	// saturating at math.MaxInt64.
	Stats Stats
	// Scanned is how many documents' counts began.
	Scanned int
}

// CountCorpusContext counts the query in each tree's document, over the
// tree's index from ix (built on its first use), with
// min(GOMAXPROCS, len(trees)) workers. Each worker counts with its own
// Counter, c on the calling goroutine and a copy of c on each other one,
// and takes the next document in input order until none is left.
//
// nodeBudget (when non-nil) is one budget for the whole pass: each worker
// draws its units from it budgetChunk at a time and gives back what it has
// not spent when it stops, so the units charged never exceed the budget
// and on return *nodeBudget holds the rest. When one worker finds the
// budget spent, each other one can still hold up to budgetChunk units it
// drew, so the budget can stop a pass up to (workers−1)·budgetChunk units
// early; with one worker, the pass stops where a sequential scan of the
// documents under the same budget stops. The pass then returns
// ErrNodeBudget with the counts up to the stop. A done ctx stops every
// worker, and the pass returns ctx.Err(). A worker's panic stops the
// others and is raised again on the calling goroutine once all have
// returned.
func (c *Counter) CountCorpusContext(ctx context.Context, ix *Indexer, trees []*labeltree.Tree, nodeBudget *int64) (CorpusCount, error) {
	res := CorpusCount{Counts: make([]int64, len(trees))}
	var pool *atomic.Int64
	if nodeBudget != nil {
		pool = new(atomic.Int64)
		pool.Store(*nodeBudget)
	}
	var next atomic.Int64 // the next document to count
	var stop atomic.Bool  // set by a worker that stopped on an error or a panic
	type part struct {
		candidates int64
		scanned    int
		err        error
		panic      any
	}
	parts := make([]part, min(runtime.GOMAXPROCS(0), len(trees)))
	work := func(p *part, wc *Counter) {
		var left int64
		var budget *int64
		if pool != nil {
			budget = &left
		}
		wc.pool = pool
		defer func() {
			wc.pool = nil
			if pool != nil {
				pool.Add(left)
			}
			if r := recover(); r != nil {
				p.panic = r
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			i := next.Add(1) - 1
			if i >= int64(len(trees)) {
				return
			}
			p.scanned++
			st, err := wc.CountContext(ctx, ix.For(trees[i]), budget)
			res.Counts[i] = st.Matches
			p.candidates += st.Candidates
			if err != nil {
				p.err = err
				stop.Store(true)
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < len(parts); w++ {
		wc := c.clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer wc.Release()
			work(&parts[w], wc)
		}()
	}
	if len(parts) > 0 {
		work(&parts[0], c)
	}
	wg.Wait()

	var err error
	for _, p := range parts {
		if p.panic != nil {
			panic(p.panic)
		}
		res.Stats.Candidates += p.candidates
		res.Scanned += p.scanned
		// A cancellation outranks the budget: the caller gave up.
		if p.err != nil && (err == nil || errors.Is(err, ErrNodeBudget)) {
			err = p.err
		}
	}
	for _, n := range res.Counts {
		res.Stats.Matches = satAdd(res.Stats.Matches, n)
	}
	if nodeBudget != nil {
		*nodeBudget = pool.Load()
	}
	return res, err
}

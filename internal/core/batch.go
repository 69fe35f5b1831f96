package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"treelattice/internal/labeltree"
)

// BatchOptions configures EstimateBatchContext.
type BatchOptions struct {
	// Workers bounds the goroutines fanning queries out. Zero means
	// min(GOMAXPROCS, len(queries)); 1 forces sequential evaluation.
	Workers int
	// DisableFallback answers each item strictly under the requested
	// method: items that blow the budget fail with their context error
	// instead of degrading to a cheaper method.
	DisableFallback bool
	// Methods, when non-empty, overrides the batch-level method per item:
	// Methods[i] applies to queries[i], with the empty Method falling
	// back to the batch-level one. Length must match queries. Every named
	// method is validated against the method table up front.
	Methods []Method
}

// BatchResult is the per-item outcome of a batch estimate. Exactly one of
// Err or the estimate fields is meaningful; Method always names the
// method involved — on success the one that produced the estimate (the
// requested one, or its fallback when Degraded is set), on failure the
// one that was asked for.
type BatchResult struct {
	DegradedEstimate
	Err error
}

// EstimateBatchContext estimates every query in one call, fanning the
// batch across a worker pool. All workers share the summary's answer
// caches, so a query a recursive method has already answered is not
// decomposed again.
//
// Results are positional: results[i] answers queries[i], with per-item
// errors (an expired budget fails the not-yet-evaluated items
// individually, it does not poison completed ones). Methods — the
// batch-level one and every per-item override — are validated up front;
// an unknown method fails the whole batch, since its items could never
// succeed.
func (s *Summary) EstimateBatchContext(ctx context.Context, queries []labeltree.Pattern, method Method, opts BatchOptions) ([]BatchResult, error) {
	if _, err := s.LookupMethod(method); err != nil {
		return nil, err
	}
	if len(opts.Methods) > 0 && len(opts.Methods) != len(queries) {
		return nil, fmt.Errorf("core: %d method overrides for %d queries", len(opts.Methods), len(queries))
	}
	methodAt := func(i int) Method {
		if len(opts.Methods) > 0 && opts.Methods[i] != "" {
			return opts.Methods[i]
		}
		return method
	}
	checked := map[Method]bool{method: true}
	for i := range opts.Methods {
		m := methodAt(i)
		if checked[m] {
			continue
		}
		if _, err := s.LookupMethod(m); err != nil {
			return nil, err
		}
		checked[m] = true
	}
	results := make([]BatchResult, len(queries))
	if len(queries) == 0 {
		return results, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				results[i] = s.estimateBatchItem(ctx, queries[i], methodAt(i), opts.DisableFallback)
			}
		}()
	}
	wg.Wait()
	return results, nil
}

func (s *Summary) estimateBatchItem(ctx context.Context, q labeltree.Pattern, method Method, strict bool) BatchResult {
	run := s.EstimateDegradable
	if strict {
		run = s.EstimateStrict
	}
	de, err := run(ctx, q, method)
	if err != nil {
		return BatchResult{DegradedEstimate: DegradedEstimate{Method: method}, Err: err}
	}
	return BatchResult{DegradedEstimate: de}
}

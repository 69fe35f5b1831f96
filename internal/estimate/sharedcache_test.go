package estimate_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/mine"
	"treelattice/internal/treetest"
)

// The estimators keep no cache. Core's method table keeps a whole-answer
// cache per summary in front of the two recursive ones, and these tests
// pin that an answer it hands back is the estimator's own, bit for bit.

// minedStore builds a small mined summary and random queries over it.
func minedStore(t testing.TB) (*lattice.Summary, []labeltree.Pattern) {
	t.Helper()
	d, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(5))
	tree := treetest.RandomTree(rng, 300, alphabet, d)
	sum, err := mine.Mine(tree, 3, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]labeltree.Pattern, 0, 40)
	for i := 0; i < 40; i++ {
		queries = append(queries, treetest.RandomPattern(rng, 4+rng.Intn(3), alphabet))
	}
	return sum, queries
}

// TestSharedCachePreservesEstimates is the bit-identity property: for
// the three decomposition methods, over the map-backed and frozen
// stores, a summary's estimates equal the bare estimator's, on a cold
// cache and again on a warm one. The store is pruned so that in-range
// probes also take the reconstruction path.
func TestSharedCachePreservesEstimates(t *testing.T) {
	full, queries := minedStore(t)
	pruned := full.Filter(func(e lattice.Entry) bool {
		return e.Pattern.Size() <= 2 || e.Count > 1
	})
	backends := map[string]func() (*core.Summary, estimate.Store){
		"map": func() (*core.Summary, estimate.Store) { return core.FromLattice(pruned), pruned },
		"frozen": func() (*core.Summary, estimate.Store) {
			return core.FromLattice(pruned).Freeze(), lattice.Freeze(pruned)
		},
	}
	direct := map[core.Method]func(estimate.Store) estimate.Estimator{
		core.MethodRecursive:       func(s estimate.Store) estimate.Estimator { return estimate.NewRecursive(s, false) },
		core.MethodRecursiveVoting: func(s estimate.Store) estimate.Estimator { return estimate.NewRecursive(s, true) },
		core.MethodFixSized:        func(s estimate.Store) estimate.Estimator { return estimate.NewFixSized(s) },
	}
	for bname, backend := range backends {
		for m, newDirect := range direct {
			t.Run(bname+"/"+string(m), func(t *testing.T) {
				sum, st := backend()
				plain := newDirect(st)
				for round := 0; round < 2; round++ { // round 2 meets a warm cache
					for _, q := range queries {
						got, err := sum.Estimate(q, m)
						if err != nil {
							t.Fatal(err)
						}
						if want := plain.Estimate(q); got != want {
							t.Fatalf("round %d: summary %v != estimator %v", round, got, want)
						}
					}
				}
				hits := sum.CacheStats().Hits
				if m == core.MethodFixSized {
					if hits != 0 {
						t.Fatalf("fix-sized keeps no cache, yet %d hits", hits)
					}
				} else if hits < int64(len(queries)) {
					t.Fatalf("warm round hit the cache %d times for %d queries", hits, len(queries))
				}
			})
		}
	}
}

// TestSharedCacheBackendsBitIdentical pins map-vs-frozen equality of
// voting estimates when both run through their summaries' caches.
func TestSharedCacheBackendsBitIdentical(t *testing.T) {
	lat, queries := minedStore(t)
	onMap := core.FromLattice(lat)
	onFrozen := onMap.Freeze()
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			a, err := onMap.Estimate(q, core.MethodRecursiveVoting)
			if err != nil {
				t.Fatal(err)
			}
			b, err := onFrozen.Estimate(q, core.MethodRecursiveVoting)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("round %d: map %v != frozen %v for %s", round, a, b, q.String(lat.Dict()))
			}
		}
	}
}

// TestSharedCacheConcurrentEstimates drives one summary's voting method
// from 8 goroutines sharing its answer cache (the serving configuration)
// and checks every result against a single-threaded bare estimator.
func TestSharedCacheConcurrentEstimates(t *testing.T) {
	lat, queries := minedStore(t)
	sum := core.FromLattice(lat).Freeze()
	baseline := estimate.NewRecursive(lattice.Freeze(lat), true)
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = baseline.Estimate(q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(queries); i++ {
				qi := (g + i) % len(queries)
				got, err := sum.Estimate(queries[qi], core.MethodRecursiveVoting)
				if err == nil && got != want[qi] {
					err = fmt.Errorf("query %d: got %v want %v", qi, got, want[qi])
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/mine"
	"treelattice/internal/obs"
	"treelattice/internal/treetest"
	"treelattice/internal/workload"
)

var testKeyDict = labeltree.NewDict()

func testKey(i int) labeltree.Key {
	return labeltree.SingleNode(testKeyDict.Intern(fmt.Sprintf("l%d", i))).Key()
}

func TestSubCacheGetPut(t *testing.T) {
	c := NewSubCache(64)
	k := testKey(1)
	if _, ok := c.get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k, 3.5)
	if v, ok := c.get(k); !ok || v != 3.5 {
		t.Fatalf("get = %v,%v want 3.5,true", v, ok)
	}
	c.put(k, 4.5) // overwrite in place
	if v, _ := c.get(k); v != 4.5 {
		t.Fatalf("overwrite lost: %v", v)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubCacheBounded(t *testing.T) {
	const capacity = 64
	c := NewSubCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		c.put(testKey(i), float64(i))
	}
	// Rounded-up per-shard capacity: entries never exceed shards*ceil.
	limit := subCacheShards * ((capacity + subCacheShards - 1) / subCacheShards)
	if got := c.Len(); got > limit {
		t.Fatalf("cache holds %d entries, limit %d", got, limit)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded despite overflow")
	}
}

func TestSubCacheNilSafe(t *testing.T) {
	var c *SubCache
	if _, ok := c.get(testKey(1)); ok {
		t.Fatal("nil cache hit")
	}
	c.put(testKey(1), 1)
	if c.Len() != 0 {
		t.Fatal("nil cache reports state")
	}
	if st := c.Stats(); st != (SubCacheStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestSubCacheInstrument(t *testing.T) {
	c := NewSubCache(16)
	reg := obs.NewRegistry()
	hits, misses, evict := reg.Counter("h"), reg.Counter("m"), reg.Counter("e")
	c.Instrument(hits, misses, evict)
	for i := 0; i < 100; i++ {
		c.put(testKey(i), float64(i))
	}
	c.get(testKey(99))
	c.get(testKey(12345))
	st := c.Stats()
	if int64(hits.Value()) != st.Hits || int64(misses.Value()) != st.Misses || int64(evict.Value()) != st.Evictions {
		t.Fatalf("obs mirrors diverge: %d/%d/%d vs %+v", hits.Value(), misses.Value(), evict.Value(), st)
	}
	if st.Evictions == 0 {
		t.Fatal("expected evictions with capacity 16")
	}
}

// TestSubCacheConcurrent hammers one cache from 8 goroutines mixing gets,
// puts, and stats reads over twice as many keys as it holds, so FIFO
// evictions race lookups; run under -race it is the shared-cache safety
// test.
func TestSubCacheConcurrent(t *testing.T) {
	c := NewSubCache(64)
	keys := make([]labeltree.Key, 128)
	for i := range keys {
		keys[i] = testKey(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(10) {
				case 0:
					c.Stats()
				case 1:
					c.put(k, float64(i))
				default:
					if v, ok := c.get(k); !ok {
						c.put(k, float64(i))
					} else {
						_ = v
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions: the race mix never overflowed the cache")
	}
}

// minedStore builds a small mined summary for estimator-level cache tests.
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
// both estimator families, over both the map-backed and frozen backends,
// estimates with a shared (and pre-warmed) cache equal the uncached
// estimates exactly. The store is pruned so the fix-sized estimator's
// in-range probes also exercise the reconstruction (and thus caching)
// path — over a complete lattice it never decomposes.
func TestSharedCachePreservesEstimates(t *testing.T) {
	full, queries := minedStore(t)
	sum := full.Filter(func(e lattice.Entry) bool {
		return e.Pattern.Size() <= 2 || e.Count > 1
	})
	frozen := lattice.Freeze(sum)
	backends := map[string]Store{"map": sum, "frozen": frozen}
	type mk func(s Store, c *SubCache) Estimator
	estimators := map[string]mk{
		"recursive": func(s Store, c *SubCache) Estimator {
			return &Recursive{Sum: s, Cache: c}
		},
		"recursive+voting": func(s Store, c *SubCache) Estimator {
			return &Recursive{Sum: s, Voting: true, Cache: c}
		},
		"fix-sized": func(s Store, c *SubCache) Estimator {
			return &FixSized{Sum: s, Cache: c}
		},
	}
	for bname, backend := range backends {
		for ename, make := range estimators {
			t.Run(bname+"/"+ename, func(t *testing.T) {
				plain := make(backend, nil)
				cache := NewSubCache(4096)
				cached := make(backend, cache)
				for round := 0; round < 2; round++ { // round 2 hits a warm cache
					for _, q := range queries {
						want := plain.Estimate(q)
						got := cached.Estimate(q)
						if got != want {
							t.Fatalf("round %d: cached %v != uncached %v", round, got, want)
						}
					}
				}
				if cache.Stats().Hits == 0 {
					t.Fatal("warm rounds produced no cache hits")
				}
			})
		}
	}
}

// TestSharedCacheBackendsBitIdentical pins map-vs-frozen equality when
// both run through (distinct) shared caches.
func TestSharedCacheBackendsBitIdentical(t *testing.T) {
	sum, queries := minedStore(t)
	frozen := lattice.Freeze(sum)
	onMap := &Recursive{Sum: sum, Voting: true, Cache: NewSubCache(1024)}
	onFrozen := &Recursive{Sum: frozen, Voting: true, Cache: NewSubCache(1024)}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			if a, b := onMap.Estimate(q), onFrozen.Estimate(q); a != b {
				t.Fatalf("round %d: map %v != frozen %v for %s", round, a, b, q.String(sum.Dict()))
			}
		}
	}
}

// TestSharedCacheConcurrentEstimates drives one estimator configuration
// from 8 goroutines sharing one cache (the serving configuration) and
// checks every result against a single-threaded uncached baseline.
func TestSharedCacheConcurrentEstimates(t *testing.T) {
	sum, queries := minedStore(t)
	frozen := lattice.Freeze(sum)
	baseline := &Recursive{Sum: frozen, Voting: true}
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = baseline.Estimate(q)
	}
	cache := NewSubCache(4096)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			est := &Recursive{Sum: frozen, Voting: true, Cache: cache}
			for i := 0; i < 4*len(queries); i++ {
				qi := (g + i) % len(queries)
				if got := est.Estimate(queries[qi]); got != want[qi] {
					errs <- fmt.Errorf("goroutine %d: query %d: got %v want %v", g, qi, got, want[qi])
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

// TestTraceCountsCacheHits: a warm cache answers the repeated query's
// decomposition from cache, visible in the trace.
func TestTraceCountsCacheHits(t *testing.T) {
	sum, queries := minedStore(t)
	est := &Recursive{Sum: sum, Cache: NewSubCache(1024)}
	q := queries[0]
	_, cold := est.EstimateWithTrace(q)
	if cold.CacheHits != 0 {
		t.Fatalf("cold trace has %d cache hits", cold.CacheHits)
	}
	_, warm := est.EstimateWithTrace(q)
	if warm.CacheHits == 0 {
		t.Fatal("warm trace has no cache hits")
	}
}

// TestFreshSubCacheAllocBytes: every ingest read is the first estimate on
// a newly published epoch, whose SubCache starts empty. Filling it must
// cost about what the estimate itself allocates, not a preallocated table
// per shard touched: cold size-8 voting estimates with a fresh cache each
// may allocate at most twice the bytes of the same estimates without one.
// Each side takes the least of three passes, so a pass whose pooled
// scratch a GC dropped does not count.
func TestFreshSubCacheAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	dict := labeltree.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: datagen.XMark, Scale: 2000, Seed: 1}, dict)
	if err != nil {
		t.Fatal(err)
	}
	sum := lattice.Freeze(mineK(t, tree, 4))
	qs, err := workload.Positive(tree, workload.Options{Sizes: []int{8}, PerSize: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[8]) == 0 {
		t.Fatal("no size-8 queries")
	}
	allocated := func(fresh bool) uint64 {
		least := uint64(math.MaxUint64)
		for pass := 0; pass < 3; pass++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, q := range qs[8] {
				r := &Recursive{Sum: sum, Voting: true}
				if fresh {
					r.Cache = NewSubCache(0)
				}
				r.Estimate(q.Pattern)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	none, fresh := allocated(false), allocated(true)
	t.Logf("%d size-8 estimates: %d B without a cache, %d B with a fresh one", len(qs[8]), none, fresh)
	if fresh > 2*none {
		t.Fatalf("fresh-cache estimates allocate %d B, over twice the %d B of uncached ones", fresh, none)
	}
}

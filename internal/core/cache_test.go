package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/workload"
)

func cacheKey(i int) labeltree.Key { return labeltree.Key(strconv.Itoa(i)) }

func TestAnswerCacheGetPut(t *testing.T) {
	var c answerCache
	k := cacheKey(1)
	if _, ok := c.get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k, 3.5)
	if v, ok := c.get(k); !ok || v != 3.5 {
		t.Fatalf("get = %v,%v want 3.5,true", v, ok)
	}
	c.put(k, 4.5) // a racing miss storing the same key keeps the first answer
	if v, _ := c.get(k); v != 3.5 {
		t.Fatalf("second put replaced the answer: %v", v)
	}
	if st := c.stats(); st != (CacheStats{Hits: 2, Misses: 1, Entries: 1}) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAnswerCacheBounded overfills a cache: it holds answerCapacity
// entries, evicts the oldest first, and counts every eviction.
func TestAnswerCacheBounded(t *testing.T) {
	var c answerCache
	const extra = 100
	for i := 0; i < answerCapacity+extra; i++ {
		c.put(cacheKey(i), float64(i))
	}
	st := c.stats()
	if st.Entries != answerCapacity || st.Evictions != extra {
		t.Fatalf("stats = %+v, want %d entries and %d evictions", st, answerCapacity, extra)
	}
	if _, ok := c.get(cacheKey(extra - 1)); ok {
		t.Fatal("an evicted key still hits: eviction is not oldest-first")
	}
	if v, ok := c.get(cacheKey(extra)); !ok || v != extra {
		t.Fatalf("oldest resident key: %v,%v", v, ok)
	}
}

// TestAnswerCacheConcurrent hammers one cache from 8 goroutines mixing
// gets, puts and stats reads over more keys than it holds, so FIFO
// evictions race lookups; run under -race it is the cache's safety test.
func TestAnswerCacheConcurrent(t *testing.T) {
	var c answerCache
	const perG = answerCapacity / 4
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				c.put(cacheKey(g*perG+i), float64(i))
				if v, ok := c.get(cacheKey(rng.Intn(8 * perG))); ok && v < 0 {
					t.Errorf("negative answer %v", v)
				}
				if i%1024 == 0 {
					c.stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.stats(); st.Evictions == 0 || st.Entries != answerCapacity {
		t.Fatalf("stats = %+v: the mix never overflowed the cache", st)
	}
}

// TestAnswerCacheAllocs: every ingest read is the first estimate on a
// newly published epoch, whose answer caches start empty. Storing a cold
// size-8 recursive+voting answer in a new summary's cache may add only a
// fixed handful of allocations to the bare estimate (the map, its first
// group, the ring), never one per decomposed sub-twig. Each side takes
// the least of several trials, so a trial whose pooled scratch a GC (or
// the race detector) dropped does not count.
func TestAnswerCacheAllocs(t *testing.T) {
	dict := labeltree.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: datagen.XMark, Scale: 2000, Seed: 1}, dict)
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(tree, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := built.Freeze()
	qs, err := workload.Positive(tree, workload.Options{Sizes: []int{8}, PerSize: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs[8]) == 0 {
		t.Fatal("no size-8 queries")
	}
	ctx := context.Background()
	least := func(setup func() func()) uint64 {
		n := uint64(math.MaxUint64)
		for trial := 0; trial < 8; trial++ {
			run := setup()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			n = min(n, after.Mallocs-before.Mallocs)
		}
		return n
	}
	const handful = 4
	for _, q := range qs[8] {
		bare := least(func() func() {
			r := &estimate.Recursive{Sum: base.st, Voting: true}
			return func() { r.EstimateContext(ctx, q.Pattern) }
		})
		fresh := least(func() func() {
			sum := base.derive(base.st)
			row, err := lookupMethod(MethodRecursiveVoting)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sum.preparedFor(ctx, row); err != nil {
				t.Fatal(err)
			}
			return func() { sum.EstimateContext(ctx, q.Pattern, MethodRecursiveVoting) }
		})
		if fresh > bare+handful {
			t.Fatalf("%s: %d allocs through a fresh answer cache, %d bare: the cache adds more than %d",
				q.Pattern.String(dict), fresh, bare, handful)
		}
		t.Logf("%d allocs bare, %d through a fresh answer cache", bare, fresh)
	}
}

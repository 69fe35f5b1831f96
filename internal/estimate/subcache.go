package estimate

import (
	"sync"
	"sync/atomic"

	"treelattice/internal/labeltree"
	"treelattice/internal/obs"
)

// SubCache is a bounded, concurrency-safe cache of sub-twig estimates
// keyed by canonical pattern key, shared across queries and goroutines.
// The decomposition engine layers its per-query memo over it: repeated
// sub-twigs across a workload — the common case, since optimizer-issued
// queries share structure — are decomposed once instead of per query.
//
// The cache is sharded by key hash to keep lock contention off the hot
// path and bounded per shard with FIFO replacement: sub-estimate values
// are cheap to recompute, so replacement recency is not worth an LRU's
// extra bookkeeping under contention. Each shard's map and FIFO ring grow
// with use up to the bound, so a new cache (every epoch publishes one)
// costs its first reads only what they store.
//
// A SubCache must only be shared by estimators with the same store and
// configuration: cached values are deterministic for a (store, config)
// pair, which is what keeps cached and uncached estimates bit-identical.
// A nil *SubCache is valid and disables caching.
type SubCache struct {
	shardCap int
	shards   [subCacheShards]subCacheShard

	hits, misses, evictions atomic.Int64

	// Optional obs mirrors, set by Instrument before the cache sees
	// traffic.
	hitC, missC, evictC *obs.Counter
}

const subCacheShards = 16

type subCacheShard struct {
	mu   sync.Mutex
	m    map[labeltree.Key]float64
	ring []labeltree.Key // FIFO of resident keys; next is the eviction hand
	next int
}

// NewSubCache returns a cache bounded to roughly capacity entries
// (rounded up to a multiple of the shard count). capacity <= 0 picks a
// default suited to serving workloads.
func NewSubCache(capacity int) *SubCache {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	per := (capacity + subCacheShards - 1) / subCacheShards
	return &SubCache{shardCap: per}
}

// Instrument mirrors hit/miss/eviction events into obs counters (any may
// be nil to skip that event). Call before the cache sees traffic.
func (c *SubCache) Instrument(hits, misses, evictions *obs.Counter) {
	c.hitC, c.missC, c.evictC = hits, misses, evictions
}

// shard maps a key to its shard by FNV-1a hash. The engine calls get and
// put with keys it already computed for memoization, so hashing is the
// only added per-lookup cost.
func (c *SubCache) shard(key labeltree.Key) *subCacheShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h&(subCacheShards-1)]
}

func (c *SubCache) get(key labeltree.Key) (float64, bool) {
	if c == nil {
		return 0, false
	}
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
		if c.hitC != nil {
			c.hitC.Inc()
		}
	} else {
		c.misses.Add(1)
		if c.missC != nil {
			c.missC.Inc()
		}
	}
	return v, ok
}

func (c *SubCache) put(key labeltree.Key, v float64) {
	if c == nil {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	if s.m == nil {
		// No capacity hint: the map and its ring grow with use, so a
		// fresh cache costs only what it stores.
		s.m = make(map[labeltree.Key]float64)
	}
	if _, ok := s.m[key]; ok {
		s.m[key] = v
		s.mu.Unlock()
		return
	}
	evicted := false
	if len(s.m) >= c.shardCap {
		old := s.ring[s.next]
		delete(s.m, old)
		s.m[key] = v
		s.ring[s.next] = key
		s.next = (s.next + 1) % len(s.ring)
		evicted = true
	} else {
		s.m[key] = v
		s.ring = append(s.ring, key)
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		if c.evictC != nil {
			c.evictC.Inc()
		}
	}
}

// Len reports the number of resident entries.
func (c *SubCache) Len() int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// SubCacheStats is a point-in-time view of cache effectiveness.
type SubCacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Stats returns current counters and occupancy.
func (c *SubCache) Stats() SubCacheStats {
	if c == nil {
		return SubCacheStats{}
	}
	return SubCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

package core

import (
	"context"
	"sync"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
)

// answerCapacity bounds each answer cache to 65,536 whole-query answers.
const answerCapacity = 1 << 16

// answerCache holds whole estimates of one method over one summary,
// keyed by the query's canonical key. It sits in front of the
// decomposition engine, never inside it: the recursion of Section 3.2
// stays a pure function of lattice and query, and a hit hands back the
// answer that same function computed, so cached and uncached estimates
// are bit-identical.
//
// One mutex over one map and one FIFO ring is enough: a hit is one map
// probe under the lock, and a miss pays a decomposition of microseconds
// before its one insert. The map and ring grow with use up to
// answerCapacity, so a new summary (every epoch publishes one) pays its
// first reads only for what they store. The zero value is ready to use.
type answerCache struct {
	mu                      sync.Mutex
	m                       map[labeltree.Key]float64
	ring                    []labeltree.Key // resident keys in insertion order; next is the eviction hand
	next                    int
	hits, misses, evictions int64
}

func (c *answerCache) get(key labeltree.Key) (float64, bool) {
	c.mu.Lock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return v, ok
}

func (c *answerCache) put(key labeltree.Key, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[labeltree.Key]float64)
	}
	if _, ok := c.m[key]; ok {
		return // a racing miss stored the same answer first
	}
	if len(c.m) < answerCapacity {
		c.ring = append(c.ring, key)
	} else {
		delete(c.m, c.ring[c.next])
		c.ring[c.next] = key
		c.next = (c.next + 1) % len(c.ring)
		c.evictions++
	}
	c.m[key] = v
}

// CacheStats is a point-in-time view of a summary's answer caches.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

func (c *answerCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.m)}
}

// CacheStats sums the summary's answer caches: those of the recursive
// and recursive+voting methods, the two that keep one.
func (s *Summary) CacheStats() CacheStats {
	a, b := s.recursiveAnswers.stats(), s.votingAnswers.stats()
	return CacheStats{
		Hits:      a.Hits + b.Hits,
		Misses:    a.Misses + b.Misses,
		Evictions: a.Evictions + b.Evictions,
		Entries:   a.Entries + b.Entries,
	}
}

// cachedRecursive answers a recursive method's estimates through the
// summary's answer cache for that method: a repeat comes from the cache,
// and only a completed answer enters it (a cancelled recursion unwinds
// with placeholders).
func cachedRecursive(est *estimate.Recursive, c *answerCache) Prepared {
	return estimateFunc(func(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
		key := q.Key()
		if v, ok := c.get(key); ok {
			return Aggregate{Estimate: v, Cached: true}, nil
		}
		v, err := est.EstimateKeyContext(ctx, key, q.Size())
		if err != nil {
			return Aggregate{}, err
		}
		c.put(key, v)
		return Aggregate{Estimate: v}, nil
	})
}

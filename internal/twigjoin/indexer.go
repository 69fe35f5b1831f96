package twigjoin

import (
	"maps"
	"sync"

	"treelattice/internal/labeltree"
)

// Indexer caches one Index per document, keyed by tree identity. Trees
// are immutable once built, and ingest epochs share unchanged tree
// pointers across snapshots, so a corpus-lifetime Indexer builds each
// document's region index exactly once no matter how many epochs or
// requests touch it. Safe for concurrent use; a lost build race costs one
// duplicate build, never an inconsistent index.
type Indexer struct {
	mu sync.RWMutex
	m  map[*labeltree.Tree]*Index
}

// NewIndexer returns an empty cache.
func NewIndexer() *Indexer {
	return &Indexer{m: make(map[*labeltree.Tree]*Index)}
}

// For returns the cached index for t, building it on first use.
func (ix *Indexer) For(t *labeltree.Tree) *Index {
	ix.mu.RLock()
	idx := ix.m[t]
	ix.mu.RUnlock()
	if idx != nil {
		return idx
	}
	idx = NewIndex(t)
	ix.mu.Lock()
	if prior := ix.m[t]; prior != nil {
		idx = prior
	} else {
		ix.m[t] = idx
	}
	ix.mu.Unlock()
	return idx
}

// ForAll returns indexes positionally aligned with trees.
func (ix *Indexer) ForAll(trees []*labeltree.Tree) []*Index {
	out := make([]*Index, len(trees))
	for i, t := range trees {
		out[i] = ix.For(t)
	}
	return out
}

// Retain drops the index of every tree not in live.
func (ix *Indexer) Retain(live []*labeltree.Tree) {
	keep := make(map[*labeltree.Tree]bool, len(live))
	for _, t := range live {
		keep[t] = true
	}
	ix.mu.Lock()
	maps.DeleteFunc(ix.m, func(t *labeltree.Tree, _ *Index) bool { return !keep[t] })
	ix.mu.Unlock()
}

// Len reports how many documents are indexed.
func (ix *Indexer) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.m)
}

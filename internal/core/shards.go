package core

import (
	"fmt"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
)

// FromShards combines N shard summaries into one read-only summary whose
// estimates are bit-identical to a summary built over the union of the
// shards' documents.
//
// The combination happens at the count level, one algebra step below the
// estimators: documents are independent trees, so the count of a pattern
// over a union corpus is the sum of its per-shard counts — the same
// additivity BuildForestContext's pairwise reduce exploits. Summing at
// the estimate.Store seam therefore presents every estimator with exactly
// the store a single merged summary would have, and each produces the
// same bits it would have produced there. (Combining per-shard *estimates*
// would not be exact: decomposition estimates are nonlinear products of
// count ratios.)
//
// All shards must share one label dictionary and one lattice level K;
// pruning is contagious (the union is pruned if any shard is). The result
// carries no TreeSource; bind one with BindSource to enable
// document-needing methods. Shards are rebuilt, not edited.
func FromShards(shards []*Summary) (*Summary, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: FromShards needs at least one shard")
	}
	dict := shards[0].dict
	k := shards[0].K()
	ss := &shardStore{stores: make([]estimate.Store, len(shards)), k: k}
	for i, sh := range shards {
		if sh.dict != dict {
			return nil, fmt.Errorf("%w: shard %d does not share the dictionary", ErrDictMismatch, i)
		}
		if sh.K() != k {
			return nil, fmt.Errorf("core: shard %d has K=%d, want K=%d", i, sh.K(), k)
		}
		st := sh.st
		ss.stores[i] = st
		if st.Pruned() {
			ss.pruned = true
		}
	}
	return &Summary{st: ss, dict: dict}, nil
}

// shardStore sums pattern counts across per-shard stores. Presence is the
// union of per-shard presence: a pattern found in any shard is found, and
// its count is the sum over the shards that hold it.
type shardStore struct {
	stores []estimate.Store
	k      int
	pruned bool
}

var _ estimate.Store = (*shardStore)(nil)

func (m *shardStore) Count(p labeltree.Pattern) (int64, bool) {
	var total int64
	found := false
	for _, st := range m.stores {
		if c, ok := st.Count(p); ok {
			total += c
			found = true
		}
	}
	return total, found
}

func (m *shardStore) CountKey(key labeltree.Key) (int64, bool) {
	var total int64
	found := false
	for _, st := range m.stores {
		if c, ok := st.CountKey(key); ok {
			total += c
			found = true
		}
	}
	return total, found
}

func (m *shardStore) K() int { return m.k }

func (m *shardStore) Pruned() bool { return m.pruned }

// SizeBytes sums the accounted storage of the shard stores.
func (m *shardStore) SizeBytes() int {
	total := 0
	for _, st := range m.stores {
		if sz, ok := st.(sized); ok {
			total += sz.SizeBytes()
		}
	}
	return total
}

// ResidentBytes sums the resident bytes of the shard stores, falling
// back to accounted storage for backends that cannot report residency.
func (m *shardStore) ResidentBytes() int {
	total := 0
	for _, st := range m.stores {
		switch sz := st.(type) {
		case residentSized:
			total += sz.ResidentBytes()
		case sized:
			total += sz.SizeBytes()
		}
	}
	return total
}

// Len sums per-shard entry counts. A pattern present in several shards is
// counted once per shard — the figure reports stored entries, not
// distinct patterns.
func (m *shardStore) Len() int {
	total := 0
	for _, st := range m.stores {
		if sz, ok := st.(sized); ok {
			total += sz.Len()
		}
	}
	return total
}

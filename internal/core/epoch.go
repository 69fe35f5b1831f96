package core

import (
	"fmt"
	"sync/atomic"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/twigjoin"
)

// This file is the RCU epoch seam of the corpus write path — the only
// way a served summary changes. An Epoch is one immutable serving
// state: a base summary (frozen, compressed, or map-backed), the delta
// overlay of documents added and removed since the base was cut, and
// the document snapshot backing document-driven estimators. Writers
// publish a fresh Epoch per change through an atomic pointer swap;
// readers load the pointer once per request and finish against that
// epoch even if a dozen more are published meanwhile. Nothing in an
// epoch ever mutates, so there is no read-side locking anywhere — and
// because every epoch carries a fresh Summary, its answer and
// prepared-method caches are per-epoch by construction: publishing a
// new epoch is the cache invalidation.

// Epoch is one immutable serving state. Estimates run against Summary;
// Docs/Names are the sorted document snapshot the summary's
// document-driven methods (markov, treesketch) prepare from.
type Epoch struct {
	// ID is the monotonically increasing epoch number (1 = first publish).
	ID uint64
	// Summary is the merged (base + delta) read view for this epoch.
	Summary *Summary
	// Docs holds the document trees, sorted by name (stable order keeps
	// the document-backed methods' estimates deterministic).
	Docs []*labeltree.Tree
	// Names holds the document names, positionally aligned with Docs.
	Names []string
	// indexer is the region-index cache shared across epochs (trees
	// survive epoch swaps by pointer, so indexes do too); set from the
	// handle at publish.
	indexer *twigjoin.Indexer
}

// Trees implements TreeSource: the epoch's frozen document snapshot.
func (e *Epoch) Trees() []*labeltree.Tree { return e.Docs }

// DocNames implements DocNamer: names aligned with Trees().
func (e *Epoch) DocNames() []string { return e.Names }

// TwigIndexer implements TwigIndexerSource; nil before the owning handle
// installed a cache (ExecuteQueryContext then falls back to a
// summary-local one).
func (e *Epoch) TwigIndexer() *twigjoin.Indexer { return e.indexer }

// HasDoc reports whether name is in the epoch's document snapshot.
func (e *Epoch) HasDoc(name string) (int, bool) {
	lo, hi := 0, len(e.Names)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.Names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(e.Names) && e.Names[lo] == name
}

// EpochHandle is the atomic publication point readers and the corpus
// writer share. Current never blocks; Publish is called by one writer
// at a time (the corpus serializes writers internally).
type EpochHandle struct {
	cur atomic.Pointer[Epoch]
	seq atomic.Uint64
	// indexer, when set (before the first Publish), is carried into
	// every published epoch so query execution reuses region indexes
	// across epoch swaps.
	indexer *twigjoin.Indexer
}

// SetTwigIndexer installs the region-index cache future epochs carry.
// Call before the first Publish.
func (h *EpochHandle) SetTwigIndexer(ix *twigjoin.Indexer) { h.indexer = ix }

// Current returns the serving epoch, or nil before the first Publish.
func (h *EpochHandle) Current() *Epoch { return h.cur.Load() }

// Publish builds the next epoch over base merged with delta and swaps
// it in. An epoch whose delta is nil or empty serves the base store
// directly. docs/names must be sorted by name and positionally aligned;
// the new epoch's summary binds them as its TreeSource.
func (h *EpochHandle) Publish(base *Summary, delta *lattice.Delta, docs []*labeltree.Tree, names []string) *Epoch {
	st := base.st
	if delta != nil && !delta.Empty() {
		st = &estimate.Merged{Base: base.st, Delta: delta}
	}
	sum := base.derive(st)
	e := &Epoch{ID: h.seq.Add(1), Summary: sum, Docs: docs, Names: names, indexer: h.indexer}
	sum.BindSource(e)
	h.cur.Store(e)
	return e
}

// IngestStats is the observability snapshot of the background ingest
// pipeline, surfaced under /v1/stats.
type IngestStats struct {
	// Epoch is the serving epoch number (0 = ingest not enabled).
	Epoch uint64 `json:"epoch"`
	// DeltaDocs / DeltaBytes size the unfolded delta overlay.
	DeltaDocs  int `json:"delta_docs"`
	DeltaBytes int `json:"delta_bytes"`
	// RefreezeAttempts counts refreeze tries, RefreezeFailures the ones
	// that errored (each failure retries with jittered backoff), and
	// Refreezes the snapshots successfully published.
	RefreezeAttempts uint64 `json:"refreeze_attempts"`
	RefreezeFailures uint64 `json:"refreeze_failures"`
	Refreezes        uint64 `json:"refreezes"`
	// LastRefreezeMS is the wall-clock duration of the last successful
	// refreeze, in milliseconds.
	LastRefreezeMS int64 `json:"refreeze_last_duration_ms"`
	// Backpressured counts ingests rejected because the delta hit its
	// hard size limit before the refreezer could catch up.
	Backpressured uint64 `json:"backpressured"`
}

// Materialize returns a mutable map-backed copy of the summary's
// counts — the refreeze path's way back from a frozen or compressed
// base to a lattice it can fold a delta into. An epoch's merged view
// cannot materialize, and pruned summaries must not (missing
// patterns are derivable, not absent; a fold would corrupt them).
func (s *Summary) Materialize() (*lattice.Summary, error) {
	if s.st.Pruned() {
		return nil, fmt.Errorf("%w: cannot materialize", ErrPrunedSummary)
	}
	lat, err := s.asLattice()
	if err != nil {
		return nil, err
	}
	if lat == s.Lattice() {
		lat = lat.Clone()
	}
	return lat, nil
}

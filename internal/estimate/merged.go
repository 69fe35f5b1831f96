package estimate

import "treelattice/internal/labeltree"

// Merged overlays a small delta store on an immutable base store: the
// count of a pattern is the sum of its base and delta counts (the delta
// may be negative for removed documents), and a pattern is present in
// the merge when that sum is not zero. Documents are
// independent trees, so counts are additive across them — the merged
// store answers exactly what a store rebuilt over (base docs ∪ delta
// docs) would answer, which is what keeps every estimator bit-identical
// on the merged view. Both halves are immutable, so Merged is safe for
// concurrent use; the zero-downtime ingest path publishes a fresh
// Merged per epoch instead of mutating one in place.
type Merged struct {
	Base  Store
	Delta Store
}

var _ Store = (*Merged)(nil)

// Count implements Store: additive across base and delta.
func (m *Merged) Count(p labeltree.Pattern) (int64, bool) {
	return m.CountKey(p.Key())
}

// CountKey implements Store. A merged count of zero — a document
// removed through a negative delta took the last occurrences — reads as
// absent, exactly as the pattern reads in a store rebuilt without it.
func (m *Merged) CountKey(key labeltree.Key) (int64, bool) {
	b, okB := m.Base.CountKey(key)
	d, okD := m.Delta.CountKey(key)
	return b + d, (okB || okD) && b+d != 0
}

// K is the base's lattice level (delta is mined at the same level).
func (m *Merged) K() int { return m.Base.K() }

// Pruned is contagious from either half.
func (m *Merged) Pruned() bool { return m.Base.Pruned() || m.Delta.Pruned() }

// StoreKind names the backend for introspection surfaces.
func (m *Merged) StoreKind() string { return "delta" }

// lenSized / byteSized mirror core's sized interfaces without importing
// core (estimate sits below it).
type lenSized interface {
	SizeBytes() int
	Len() int
}

type residentSized interface{ ResidentBytes() int }

// SizeBytes sums the accounted storage of both halves.
func (m *Merged) SizeBytes() int {
	total := 0
	for _, st := range []Store{m.Base, m.Delta} {
		if sz, ok := st.(lenSized); ok {
			total += sz.SizeBytes()
		}
	}
	return total
}

// Len sums stored entries across both halves (a pattern in both counts
// twice; the figure reports stored entries, not distinct patterns).
func (m *Merged) Len() int {
	total := 0
	for _, st := range []Store{m.Base, m.Delta} {
		if sz, ok := st.(lenSized); ok {
			total += sz.Len()
		}
	}
	return total
}

// ResidentBytes sums resident bytes, falling back to accounted storage
// for halves that cannot report residency.
func (m *Merged) ResidentBytes() int {
	total := 0
	for _, st := range []Store{m.Base, m.Delta} {
		switch sz := st.(type) {
		case residentSized:
			total += sz.ResidentBytes()
		case lenSized:
			total += sz.SizeBytes()
		}
	}
	return total
}

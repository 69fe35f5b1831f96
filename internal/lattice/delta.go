package lattice

import "treelattice/internal/labeltree"

// Delta is a small mutable-by-replacement overlay over an immutable base
// summary: the signed counts of documents added and removed since the
// last refreeze. It keeps the two signs in separate non-negative halves
// (add and rem), so a removal of a document folded into the base is
// representable while every half still rejects a count going negative.
// A Delta value is itself immutable — Apply, Retract and Subtract return
// new Deltas sharing nothing mutable with the old one — so readers may
// keep using a Delta concurrently with writers publishing its successor.
// That copy-on-write discipline is what lets the epoch-swap serving
// path hand out (base + delta) views without any read-side locking;
// the delta stays small (refreeze watermarks bound it), so the clone
// per change is cheap.
type Delta struct {
	add, rem *Summary
	docs     int
}

// NewDelta returns an empty delta at lattice level k over dict.
func NewDelta(k int, dict *labeltree.Dict) *Delta {
	return &Delta{add: New(k, dict), rem: New(k, dict)}
}

// Apply folds one increment's mined counts (a document or a batch of
// documents) into the delta, returning the successor delta. The
// receiver is unchanged and stays valid for concurrent readers.
func (d *Delta) Apply(inc *Summary) (*Delta, error) {
	next := d.add.Clone()
	if err := next.Merge(inc); err != nil {
		return nil, err
	}
	return &Delta{add: next, rem: d.rem, docs: d.docs + 1}, nil
}

// Retract applies a removed document's increment with a negative sign:
// the successor delta reads as if the document had never been counted.
// The document may live in the base or in this delta.
func (d *Delta) Retract(inc *Summary) (*Delta, error) {
	next := d.rem.Clone()
	if err := next.Merge(inc); err != nil {
		return nil, err
	}
	return &Delta{add: d.add, rem: next, docs: d.docs + 1}, nil
}

// Subtract removes a previously cut delta's counts — the refreeze path:
// cut was folded into a new base, so the successor delta keeps only
// what arrived after the cut. Either half going negative (cut was not a
// prefix of d) is an error.
func (d *Delta) Subtract(cut *Delta) (*Delta, error) {
	add, rem := d.add.Clone(), d.rem.Clone()
	if err := subtract(add, cut.add); err != nil {
		return nil, err
	}
	if err := subtract(rem, cut.rem); err != nil {
		return nil, err
	}
	return &Delta{add: add, rem: rem, docs: max(d.docs-cut.docs, 0)}, nil
}

// FoldInto adds the delta's signed counts into s — the refreeze fold.
// A retraction that would drive a count of s negative (a document
// removed that s never counted) is an error, and s may then be partly
// updated; callers fold into a private clone.
func (d *Delta) FoldInto(s *Summary) error {
	if err := s.Merge(d.add); err != nil {
		return err
	}
	return subtract(s, d.rem)
}

// subtract takes cut's counts away from s in place; a count going
// negative is an error.
func subtract(s, cut *Summary) error {
	for k, e := range cut.entries {
		if err := s.AddCountKeyed(k, e.Pattern, -e.Count); err != nil {
			return err
		}
	}
	return nil
}

// Docs reports how many increments (added or retracted) the delta holds.
func (d *Delta) Docs() int { return d.docs }

// Empty reports whether the delta holds no increments and no counts.
func (d *Delta) Empty() bool { return d.docs == 0 && d.add.Len() == 0 && d.rem.Len() == 0 }

// Len reports the number of stored entries across both halves (a
// pattern both added and retracted counts twice).
func (d *Delta) Len() int { return d.add.Len() + d.rem.Len() }

// SizeBytes is the accounted storage size of the delta's counts — the
// figure the ingest watermarks meter.
func (d *Delta) SizeBytes() int { return d.add.SizeBytes() + d.rem.SizeBytes() }

// estimate.Store surface: a Delta overlays a base store through an
// additive merge at the count level.

// Count returns the delta's signed count for p.
func (d *Delta) Count(p labeltree.Pattern) (int64, bool) { return d.CountKey(p.Key()) }

// CountKey is Count for a precomputed canonical key. A pattern whose
// added and retracted counts cancel reads as absent.
func (d *Delta) CountKey(key labeltree.Key) (int64, bool) {
	a, _ := d.add.CountKey(key)
	r, _ := d.rem.CountKey(key)
	return a - r, a != r
}

// K returns the lattice level.
func (d *Delta) K() int { return d.add.K() }

// Pruned always reports false: deltas are mined complete, never pruned.
func (d *Delta) Pruned() bool { return false }

// Clone returns an independent copy of the summary: same counts, same
// dictionary, separate storage. The pruned mark carries over.
func (s *Summary) Clone() *Summary {
	out := New(s.k, s.dict)
	out.pruned = s.pruned
	for k, e := range s.entries {
		out.entries[k] = e
	}
	return out
}

package core

import (
	"fmt"
	"io"
	"os"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// This file holds the snapshot-format surface of Summary: serializing
// to and loading from the two immutable on-disk forms (TLAT, consumed
// by Read/ReadFrozen, and the compressed TLCZ layout), plus the
// introspection servers use to account for what is resident.

// WriteCompressed serializes the summary in the compressed TLCZ form,
// from whichever store it holds.
func (s *Summary) WriteCompressed(w io.Writer) (int64, error) {
	lat, err := s.asLattice()
	if err != nil {
		return 0, err
	}
	return lattice.WriteCompressed(w, lat)
}

// ReadCompressed deserializes a summary written by WriteCompressed,
// interning labels into dict.
func ReadCompressed(r io.Reader, dict *labeltree.Dict) (*Summary, error) {
	c, err := lattice.ReadCompressed(r, dict)
	if err != nil {
		return nil, err
	}
	return &Summary{st: c, dict: dict}, nil
}

// entriesStore is the backend surface serialization and Materialize
// need: every single-store backend (map, frozen, compressed) can
// enumerate its entries with decoded patterns.
type entriesStore interface {
	Entries(size int) []lattice.Entry
	K() int
	Pruned() bool
}

// asLattice returns the summary's counts as a map-backed lattice: the
// store itself when it is one, else a copy rebuilt from the snapshot's
// entries. Callers must not mutate the result. An epoch's merged view
// holds no single entry list and cannot serialize.
func (s *Summary) asLattice() (*lattice.Summary, error) {
	if lat := s.Lattice(); lat != nil {
		return lat, nil
	}
	st, ok := s.st.(entriesStore)
	if !ok {
		return nil, fmt.Errorf("core: %s summary cannot be serialized", s.StoreKind())
	}
	lat := lattice.New(st.K(), s.dict)
	for _, e := range st.Entries(0) {
		if err := lat.Add(e.Pattern, e.Count); err != nil {
			return nil, err
		}
	}
	if st.Pruned() {
		lat.MarkPruned()
	}
	return lat, nil
}

// OpenSnapshotFile loads a read-only summary from path, detecting the
// format by its magic: TLCZ snapshots open through the compressed
// loader (memory-mapped where the platform supports it), TLAT
// snapshots through ReadFrozen. This is the serving-path loader —
// replicas point it at whatever snapshot the build wrote.
func OpenSnapshotFile(path string, dict *labeltree.Dict) (*Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var head [4]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("core: reading snapshot magic from %s: %w", path, err)
	}
	if string(head[:]) == lattice.CompressedMagic {
		f.Close()
		c, err := lattice.OpenCompressedFile(path, dict)
		if err != nil {
			return nil, err
		}
		return &Summary{st: c, dict: dict}, nil
	}
	defer f.Close()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadFrozen(f, dict)
}

// StoreKind names the backend estimates read from: "delta" (epoch view:
// immutable base + unfolded changes), "compressed", "frozen", or "map".
func (s *Summary) StoreKind() string {
	switch st := s.st.(type) {
	case *estimate.Merged:
		return st.StoreKind()
	case *lattice.Compressed:
		return "compressed"
	case *lattice.Frozen:
		return "frozen"
	default:
		return "map"
	}
}

// residentSized is implemented by backends that can report the bytes
// they actually keep resident (all current backends do).
type residentSized interface {
	ResidentBytes() int
}

// ResidentBytes reports the bytes the active backend keeps resident in
// memory (or memory-mapped). Unlike SizeBytes — the accounted storage
// size, identical across backends — this reflects the representation,
// which is what byte-budget admission in the fleet registry meters.
func (s *Summary) ResidentBytes() int {
	if rs, ok := s.st.(residentSized); ok {
		return rs.ResidentBytes()
	}
	if sz, ok := s.st.(sized); ok {
		return sz.SizeBytes()
	}
	return 0
}

// CloseStore releases resources held by the active backend — today the
// memory mapping behind a compressed snapshot opened from a file. The
// caller must ensure no estimates are in flight; after the call the
// summary answers misses. Summaries whose backends hold no external
// resources return nil untouched.
func (s *Summary) CloseStore() error {
	if c, ok := s.st.(*lattice.Compressed); ok {
		return c.Close()
	}
	return nil
}

package lattice

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"treelattice/internal/labeltree"
)

// Binary format (little-endian, varint for variable-size fields):
//
//	magic "TLAT" | version u8 | K uvarint | pruned u8
//	labelCount uvarint | labelCount × (len uvarint, bytes)
//	entryCount uvarint | entryCount × entry
//	entry: size uvarint | size × label uvarint | (size-1) × parent uvarint
//	       (node 0's parent is implicit) | count uvarint
const (
	magic   = "TLAT"
	version = 1
)

// MaxK is the largest K a stored summary may claim, the level cap
// core.MaxK builds with: a reader sizes per-entry arrays by K, so a header
// past it is corrupt, not a deeper lattice.
const MaxK = 16

// WriteTo serializes the summary. Label IDs are written as indexes into an
// embedded label-name table, so the summary can be loaded against any
// dictionary.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	cw.write([]byte(magic))
	cw.write([]byte{version})
	cw.uvarint(uint64(s.k))
	if s.pruned {
		cw.write([]byte{1})
	} else {
		cw.write([]byte{0})
	}
	// Collect the labels actually used, in first-use order.
	used := make(map[labeltree.LabelID]uint64)
	var names []string
	entries := s.Entries(0)
	for _, e := range entries {
		for i := int32(0); int(i) < e.Pattern.Size(); i++ {
			l := e.Pattern.Label(i)
			if _, ok := used[l]; !ok {
				used[l] = uint64(len(names))
				names = append(names, s.dict.Name(l))
			}
		}
	}
	cw.uvarint(uint64(len(names)))
	for _, n := range names {
		cw.uvarint(uint64(len(n)))
		cw.write([]byte(n))
	}
	cw.uvarint(uint64(len(entries)))
	for _, e := range entries {
		n := e.Pattern.Size()
		cw.uvarint(uint64(n))
		for i := int32(0); int(i) < n; i++ {
			cw.uvarint(used[e.Pattern.Label(i)])
		}
		for i := int32(1); int(i) < n; i++ {
			cw.uvarint(uint64(e.Pattern.Parent(i)))
		}
		cw.uvarint(uint64(e.Count))
	}
	if cw.err == nil {
		cw.err = bw.Flush()
	}
	return cw.n, cw.err
}

// Read deserializes a summary written by WriteTo, interning labels into
// dict.
func Read(r io.Reader, dict *labeltree.Dict) (*Summary, error) {
	sr, err := newSummaryReader(r, dict)
	if err != nil {
		return nil, err
	}
	s := New(sr.k, dict)
	s.pruned = sr.pruned
	for e := uint64(0); e < sr.nEntries; e++ {
		p, count, err := sr.next(e)
		if err != nil {
			return nil, err
		}
		if err := s.Add(p, count); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// summaryReader streams a serialized summary: header (magic, K, pruned
// flag, label table) up front, then nEntries patterns on demand. Both the
// map-backed Read and the frozen-store ReadFrozen decode through it, so
// the two loaders accept exactly the same byte strings.
type summaryReader struct {
	br       *bufio.Reader
	k        int
	pruned   bool
	ids      []labeltree.LabelID
	nEntries uint64
}

// newSummaryReader validates the header and label table, leaving the
// reader positioned at the first entry.
func newSummaryReader(r io.Reader, dict *labeltree.Dict) (*summaryReader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("lattice: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("lattice: bad magic %q", head[:len(magic)])
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("lattice: unsupported version %d", head[len(magic)])
	}
	k, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("lattice: reading K: %w", err)
	}
	if k < 2 || k > MaxK {
		return nil, fmt.Errorf("lattice: implausible K=%d", k)
	}
	prunedByte, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("lattice: reading pruned flag: %w", err)
	}
	nLabels, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("lattice: reading label count: %w", err)
	}
	if nLabels > 1<<24 {
		return nil, fmt.Errorf("lattice: implausible label count %d", nLabels)
	}
	// The count is the input's claim: reserve little for it, and grow the
	// table as labels arrive, so a truncated table costs only what it holds.
	ids := make([]labeltree.LabelID, 0, min(nLabels, 1<<10))
	for i := uint64(0); i < nLabels; i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("lattice: reading label %d: %w", i, err)
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("lattice: label %d implausibly long (%d bytes)", i, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("lattice: reading label %d: %w", i, err)
		}
		ids = append(ids, dict.Intern(string(buf)))
	}
	nEntries, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("lattice: reading entry count: %w", err)
	}
	return &summaryReader{br: br, k: int(k), pruned: prunedByte == 1, ids: ids, nEntries: nEntries}, nil
}

// next decodes the e'th entry (e is only for error messages).
func (sr *summaryReader) next(e uint64) (labeltree.Pattern, int64, error) {
	size, err := binary.ReadUvarint(sr.br)
	if err != nil || size == 0 || size > uint64(sr.k) {
		return labeltree.Pattern{}, 0, fmt.Errorf("lattice: entry %d has bad size %d (err %v)", e, size, err)
	}
	labels := make([]labeltree.LabelID, size)
	for i := range labels {
		li, err := binary.ReadUvarint(sr.br)
		if err != nil || li >= uint64(len(sr.ids)) {
			return labeltree.Pattern{}, 0, fmt.Errorf("lattice: entry %d has bad label (err %v)", e, err)
		}
		labels[i] = sr.ids[li]
	}
	parents := make([]int32, size)
	parents[0] = -1
	for i := 1; i < int(size); i++ {
		pi, err := binary.ReadUvarint(sr.br)
		if err != nil {
			return labeltree.Pattern{}, 0, fmt.Errorf("lattice: entry %d parent: %w", e, err)
		}
		parents[i] = int32(pi)
	}
	count, err := binary.ReadUvarint(sr.br)
	if err != nil {
		return labeltree.Pattern{}, 0, fmt.Errorf("lattice: entry %d count: %w", e, err)
	}
	if count > 1<<62 {
		return labeltree.Pattern{}, 0, fmt.Errorf("lattice: entry %d count %d overflows", e, count)
	}
	p, err := labeltree.NewPattern(labels, parents)
	if err != nil {
		return labeltree.Pattern{}, 0, fmt.Errorf("lattice: entry %d: %w", e, err)
	}
	return p, int64(count), nil
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
	buf [binary.MaxVarintLen64]byte
}

func (c *countWriter) write(b []byte) {
	if c.err != nil {
		return
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	c.err = err
}

func (c *countWriter) uvarint(v uint64) {
	n := binary.PutUvarint(c.buf[:], v)
	c.write(c.buf[:n])
}

package labeltree

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary tree format (little-endian varints):
//
//	magic "TLTR" | version u8
//	labelCount uvarint | labelCount × (len uvarint, bytes)
//	nodeCount uvarint | nodeCount × label-index uvarint
//	(nodeCount−1) × parent uvarint (node 0's parent is implicit)
//
// The label table is embedded so trees can be loaded against any
// dictionary; IDs are remapped by name on load. This is the corpus
// store's on-disk form — much faster to reload than reparsing XML.
const (
	treeMagic   = "TLTR"
	treeVersion = 1
)

// WriteTree serializes t.
func WriteTree(w io.Writer, t *Tree) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	var err error
	write := func(b []byte) {
		if err != nil {
			return
		}
		var k int
		k, err = bw.Write(b)
		n += int64(k)
	}
	var buf [binary.MaxVarintLen64]byte
	uv := func(v uint64) {
		k := binary.PutUvarint(buf[:], v)
		write(buf[:k])
	}
	write([]byte(treeMagic))
	write([]byte{treeVersion})
	// Labels actually used, in first-use order.
	used := make(map[LabelID]uint64)
	var names []string
	for i := int32(0); int(i) < t.Size(); i++ {
		l := t.Label(i)
		if _, ok := used[l]; !ok {
			used[l] = uint64(len(names))
			names = append(names, t.dict.Name(l))
		}
	}
	uv(uint64(len(names)))
	for _, name := range names {
		uv(uint64(len(name)))
		write([]byte(name))
	}
	uv(uint64(t.Size()))
	for i := int32(0); int(i) < t.Size(); i++ {
		uv(used[t.Label(i)])
	}
	for i := int32(1); int(i) < t.Size(); i++ {
		uv(uint64(t.Parent(i)))
	}
	if err == nil {
		err = bw.Flush()
	}
	return n, err
}

// readReserve caps how many entries a reader reserves up front for a
// count its input's header claims; past it an array grows as entries
// arrive (appendUpTo), so a truncated or hostile header costs memory only
// for what the input actually holds.
const readReserve = 1 << 16

// appendUpTo appends v to s, an array that will hold n elements: its
// capacity doubles as elements arrive but never passes n, so a complete
// array ends exactly n long.
func appendUpTo[T any](s []T, v T, n uint64) []T {
	if len(s) == cap(s) {
		t := make([]T, len(s), min(2*uint64(cap(s)), n))
		copy(t, s)
		s = t
	}
	return append(s, v)
}

// ReadTree deserializes a tree written by WriteTree, interning labels
// into dict. It reads the labels and then the parents into arrays that
// end exactly the node count long, reserving at most readReserve entries
// of each before the entries arrive, and lays the child runs out from
// them.
func ReadTree(r io.Reader, dict *Dict) (*Tree, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(treeMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("labeltree: reading tree header: %w", err)
	}
	if string(head[:len(treeMagic)]) != treeMagic {
		return nil, fmt.Errorf("labeltree: bad tree magic %q", head[:len(treeMagic)])
	}
	if head[len(treeMagic)] != treeVersion {
		return nil, fmt.Errorf("labeltree: unsupported tree version %d", head[len(treeMagic)])
	}
	nLabels, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("labeltree: label count: %w", err)
	}
	if nLabels > 1<<24 {
		return nil, fmt.Errorf("labeltree: implausible label count %d", nLabels)
	}
	ids := make([]LabelID, 0, min(nLabels, readReserve))
	for i := uint64(0); i < nLabels; i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("labeltree: label %d length: %w", i, err)
		}
		if n > 1<<20 {
			return nil, fmt.Errorf("labeltree: label %d implausibly long (%d bytes)", i, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("labeltree: label %d: %w", i, err)
		}
		ids = append(ids, dict.Intern(string(buf)))
	}
	nNodes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("labeltree: node count: %w", err)
	}
	if nNodes == 0 {
		return nil, fmt.Errorf("labeltree: empty tree")
	}
	if nNodes > 1<<31 {
		return nil, fmt.Errorf("labeltree: implausible node count %d", nNodes)
	}
	labels := make([]LabelID, 0, min(nNodes, readReserve))
	for i := uint64(0); i < nNodes; i++ {
		li, err := binary.ReadUvarint(br)
		if err != nil || li >= nLabels {
			return nil, fmt.Errorf("labeltree: node %d label (err %v)", i, err)
		}
		labels = appendUpTo(labels, ids[li], nNodes)
	}
	parent := make([]int32, 1, min(nNodes, readReserve))
	parent[0] = -1
	for i := uint64(1); i < nNodes; i++ {
		pi, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("labeltree: node %d parent: %w", i, err)
		}
		if pi >= i {
			return nil, fmt.Errorf("labeltree: node %d has forward parent %d", i, pi)
		}
		parent = appendUpTo(parent, int32(pi), nNodes)
	}
	return newTree(dict, labels, parent), nil
}

package lattice

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sort"

	"treelattice/internal/labeltree"
)

// TLCZ v1 — the compressed snapshot format. Unlike TLAT (a stream that
// must be decoded entry by entry), TLCZ is the Compressed store's memory
// layout with a header in front: opening a snapshot is one checksum +
// structure verification pass over the bytes, after which lookups serve
// directly from the (possibly mmap'ed) file with no per-entry
// deserialization and no heap reconstruction.
//
//	header, 64 bytes fixed:
//	  0  magic "TLCZ"
//	  4  version u8
//	  5  flags u8 (bit 0: pruned)
//	  6  blockLen u16 LE
//	  8  K u32 LE
//	  12 entry count u32 LE
//	  16 label count u32 LE
//	  20 crc32c of everything past the header, u32 LE
//	  24 accounted SizeBytes u64 LE
//	  32 4 × section descriptor (offset u32 LE, length u32 LE):
//	     labels, fences, block offsets, block data
//	sections, each starting at an 8-byte-aligned file offset:
//	  labels: label count × (uvarint length, name bytes) in file-local ID order
//	  fences: per block, first key's first 8 bytes, big-endian zero-padded u64
//	  block offsets: per block, start offset into block data, u32 LE
//	  block data: front-coded runs of (header, suffix bytes, uvarint
//	    count); the header is one byte packing (lcp<<4 | suffix length)
//	    when both values are below 15, or the escape byte 0xFF followed
//	    by uvarint lcp and uvarint suffix length. Each block's first
//	    entry has lcp 0
//
// Fixed-width fields are read through encoding/binary on byte views, so
// the layout is alignment-safe however the file lands in memory. Keys in
// the file are canonical encodings under dense file-local label IDs
// (0..labelCount-1 in first-use order); when interning the label table
// into the destination dictionary reproduces exactly those IDs — always
// the case for a fresh dictionary, the serving path — key bytes are used
// zero-copy. Otherwise the entries are rebound: decoded, relabeled, and
// rebuilt in memory with identical counts.
const (
	compMagic     = "TLCZ"
	compVersion   = 1
	compHeaderLen = 64
	compFlagPrune = 1
)

// CompressedMagic and SummaryMagic are the 4-byte file signatures of the
// two snapshot formats, exported so callers can sniff which loader a file
// needs without depending on layout details.
const (
	CompressedMagic = compMagic
	SummaryMagic    = magic
)

var compCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteCompressed serializes the summary in TLCZ form. Like WriteTo, the
// output embeds a label-name table so it can be loaded against any
// dictionary, and equal summaries serialize to identical bytes.
func WriteCompressed(w io.Writer, s *Summary) (int64, error) {
	entries := s.Entries(0)
	// File-local label IDs in first-use order over the canonical entry
	// ordering — the same scheme WriteTo uses.
	used := make(map[labeltree.LabelID]labeltree.LabelID)
	seen := make(map[labeltree.LabelID]bool)
	var names []string
	for _, e := range entries {
		for i := int32(0); int(i) < e.Pattern.Size(); i++ {
			l := e.Pattern.Label(i)
			if !seen[l] {
				seen[l] = true
				used[l] = labeltree.LabelID(len(names))
				names = append(names, s.dict.Name(l))
			}
		}
	}
	// Re-encode every pattern under the file-local IDs. Canonical child
	// order depends on the IDs, so keys are rebuilt and re-sorted.
	type kc struct {
		key   string
		count int64
	}
	kcs := make([]kc, len(entries))
	sizeBytes := 0
	for i, e := range entries {
		n := e.Pattern.Size()
		labels := make([]labeltree.LabelID, n)
		parents := make([]int32, n)
		parents[0] = -1
		for j := int32(0); int(j) < n; j++ {
			labels[j] = used[e.Pattern.Label(j)]
			if j > 0 {
				parents[j] = e.Pattern.Parent(j)
			}
		}
		p, err := labeltree.NewPattern(labels, parents)
		if err != nil {
			return 0, fmt.Errorf("lattice: relabeling entry %d: %w", i, err)
		}
		kcs[i] = kc{key: string(p.Key()), count: e.Count}
		sizeBytes += 8 + 5*n
	}
	sort.Slice(kcs, func(a, b int) bool { return kcs[a].key < kcs[b].key })
	keys := make([]string, len(kcs))
	counts := make([]int64, len(kcs))
	for i, e := range kcs {
		keys[i] = e.key
		counts[i] = e.count
	}
	c := buildCompressed(keys, counts, compressedBlockLen)

	var lab []byte
	var vbuf [binary.MaxVarintLen64]byte
	for _, n := range names {
		lab = append(lab, vbuf[:binary.PutUvarint(vbuf[:], uint64(len(n)))]...)
		lab = append(lab, n...)
	}

	fenceBytes := make([]byte, 0, 8*len(c.fences))
	for _, f := range c.fences {
		fenceBytes = binary.BigEndian.AppendUint64(fenceBytes, f)
	}
	offBytes := make([]byte, 0, 4*len(c.fences))
	for _, o := range c.offs[:len(c.fences)] { // drop the in-memory sentinel
		offBytes = binary.LittleEndian.AppendUint32(offBytes, o)
	}

	var payload []byte
	var secs [4][2]uint32 // offset, length
	addSection := func(i int, b []byte) {
		for (compHeaderLen+len(payload))%8 != 0 {
			payload = append(payload, 0)
		}
		secs[i] = [2]uint32{uint32(compHeaderLen + len(payload)), uint32(len(b))}
		payload = append(payload, b...)
	}
	addSection(0, lab)
	addSection(1, fenceBytes)
	addSection(2, offBytes)
	addSection(3, c.blocks)
	if int64(compHeaderLen)+int64(len(payload)) > int64(^uint32(0)) {
		return 0, fmt.Errorf("lattice: writing compressed snapshot: %w", ErrSnapshotTooLarge)
	}

	head := make([]byte, compHeaderLen)
	copy(head, compMagic)
	head[4] = compVersion
	if s.pruned {
		head[5] = compFlagPrune
	}
	binary.LittleEndian.PutUint16(head[6:], compressedBlockLen)
	binary.LittleEndian.PutUint32(head[8:], uint32(s.k))
	binary.LittleEndian.PutUint32(head[12:], uint32(len(keys)))
	binary.LittleEndian.PutUint32(head[16:], uint32(len(names)))
	binary.LittleEndian.PutUint32(head[20:], crc32.Checksum(payload, compCRC))
	binary.LittleEndian.PutUint64(head[24:], uint64(sizeBytes))
	for i, sec := range secs {
		binary.LittleEndian.PutUint32(head[32+8*i:], sec[0])
		binary.LittleEndian.PutUint32(head[36+8*i:], sec[1])
	}

	n1, err := w.Write(head)
	if err != nil {
		return int64(n1), err
	}
	n2, err := w.Write(payload)
	return int64(n1) + int64(n2), err
}

// OpenCompressed opens a TLCZ snapshot held in data, interning its label
// table into dict. On the fast path (fresh dictionary) the returned
// store serves lookups directly out of data with zero copies, so the
// caller must not mutate data afterwards; when dict already holds labels
// under different IDs the entries are rebound onto the dictionary in
// memory instead — identical counts, no retained reference to data.
// Every open verifies the checksum and the structural invariants the
// allocation-free lookup path assumes.
func OpenCompressed(data []byte, dict *labeltree.Dict) (*Compressed, error) {
	if len(data) < compHeaderLen {
		return nil, fmt.Errorf("lattice: compressed snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:4]) != compMagic {
		return nil, fmt.Errorf("lattice: bad compressed magic %q", data[:4])
	}
	if data[4] != compVersion {
		return nil, fmt.Errorf("lattice: unsupported compressed version %d", data[4])
	}
	flags := data[5]
	if flags&^byte(compFlagPrune) != 0 {
		return nil, fmt.Errorf("lattice: unsupported compressed flags %#x", flags)
	}
	blockLen := int(binary.LittleEndian.Uint16(data[6:]))
	k := int(binary.LittleEndian.Uint32(data[8:]))
	n := int(binary.LittleEndian.Uint32(data[12:]))
	nLabels := int(binary.LittleEndian.Uint32(data[16:]))
	wantCRC := binary.LittleEndian.Uint32(data[20:])
	sizeBytes := binary.LittleEndian.Uint64(data[24:])
	if blockLen < 1 || blockLen > 1<<12 {
		return nil, fmt.Errorf("lattice: implausible compressed block length %d", blockLen)
	}
	if k < 2 || k > 1<<20 {
		return nil, fmt.Errorf("lattice: implausible K=%d", k)
	}
	if nLabels > 1<<24 {
		return nil, fmt.Errorf("lattice: implausible label count %d", nLabels)
	}
	if sizeBytes > uint64(n)*uint64(8+5*k) {
		return nil, fmt.Errorf("lattice: implausible accounted size %d for %d entries", sizeBytes, n)
	}
	if crc32.Checksum(data[compHeaderLen:], compCRC) != wantCRC {
		return nil, fmt.Errorf("lattice: compressed snapshot checksum mismatch")
	}
	sec := func(i int) ([]byte, error) {
		off := binary.LittleEndian.Uint32(data[32+8*i:])
		ln := binary.LittleEndian.Uint32(data[36+8*i:])
		if off%8 != 0 || off < compHeaderLen || uint64(off)+uint64(ln) > uint64(len(data)) {
			return nil, fmt.Errorf("lattice: compressed section %d out of bounds", i)
		}
		return data[off : off+ln : off+ln], nil
	}
	lab, err := sec(0)
	if err != nil {
		return nil, err
	}
	// Every label takes at least its length byte, so a count the label
	// section cannot hold is corrupt and must not size the label table.
	if nLabels > len(lab) {
		return nil, fmt.Errorf("lattice: %d labels claimed in a %d-byte label section", nLabels, len(lab))
	}
	fenceBytes, err := sec(1)
	if err != nil {
		return nil, err
	}
	offBytes, err := sec(2)
	if err != nil {
		return nil, err
	}
	blocks, err := sec(3)
	if err != nil {
		return nil, err
	}
	nb := 0
	if n > 0 {
		nb = (n + blockLen - 1) / blockLen
	}
	if len(fenceBytes) != nb*8 || len(offBytes) != nb*4 {
		return nil, fmt.Errorf("lattice: compressed index sections sized for %d/%d blocks, expected %d",
			len(fenceBytes)/8, len(offBytes)/4, nb)
	}
	// The fence words and block offsets are decoded off their byte
	// sections up front: the block search touches them on every lookup,
	// and native slices are endian-portable and cost one bounds check
	// per probe (the offsets additionally gain the sentinel that lets
	// blockData slice without a last-block special case). A few words
	// per block is a negligible copy next to the mapped file.
	fences := make([]uint64, nb)
	for i := range fences {
		fences[i] = binary.BigEndian.Uint64(fenceBytes[i*8:])
	}
	var offs []uint32
	if nb > 0 {
		offs = make([]uint32, nb+1)
		for i := 0; i < nb; i++ {
			offs[i] = binary.LittleEndian.Uint32(offBytes[i*4:])
		}
		offs[nb] = uint32(len(blocks))
	}

	ids := make([]labeltree.LabelID, nLabels)
	identity := true
	p := 0
	for i := range ids {
		l, un := binary.Uvarint(lab[p:])
		if un <= 0 || l > 1<<20 || int(l) > len(lab)-p-un {
			return nil, fmt.Errorf("lattice: compressed label %d malformed", i)
		}
		p += un
		ids[i] = dict.Intern(string(lab[p : p+int(l)]))
		if ids[i] != labeltree.LabelID(i) {
			identity = false
		}
		p += int(l)
	}
	if p != len(lab) {
		return nil, fmt.Errorf("lattice: compressed label table has %d trailing bytes", len(lab)-p)
	}

	// One verification pass: structure + key order (walkBlocks) and the
	// fence index the binary search trusts.
	var keyBuf []byte
	i := 0
	err = walkBlocks(blocks, offs[:nb], blockLen, n, &keyBuf, func(key []byte, _ uint64) error {
		if i%blockLen == 0 {
			if fences[i/blockLen] != prefix8(key) {
				return fmt.Errorf("lattice: compressed fence %d does not match its block", i/blockLen)
			}
		}
		i++
		return nil
	})
	if err != nil {
		return nil, err
	}

	c := &Compressed{
		k: k, dict: dict, pruned: flags&compFlagPrune != 0, n: n,
		blockLen: blockLen, fences: fences, jump: buildJump(fences),
		offs: offs, blocks: blocks,
		sizeBytes: int(sizeBytes), backing: data,
	}
	if identity {
		return c, nil
	}
	return rebindCompressed(c, ids)
}

// rebindCompressed rebuilds a snapshot whose file-local label IDs do not
// coincide with the destination dictionary's: every entry is decoded,
// relabeled through ids, re-encoded (canonical order depends on the
// IDs), and the store reassembled in memory. Counts are untouched, so
// estimates over the rebound store stay bit-identical; only the
// zero-copy property is lost. Distinct file keys can collapse after
// relabeling only when the label table carries duplicate names — then
// the later entry wins, matching Summary.Add and ReadFrozen semantics.
func rebindCompressed(c *Compressed, ids []labeltree.LabelID) (*Compressed, error) {
	type kc struct {
		key   string
		count int64
		size  int
		ord   int
	}
	kcs := make([]kc, 0, c.n)
	var keyBuf []byte
	err := walkBlocks(c.blocks, c.offs[:c.nBlocks()], c.blockLen, c.n, &keyBuf, func(key []byte, cnt uint64) error {
		ord := len(kcs)
		fp, err := labeltree.DecodeKey(labeltree.Key(key))
		if err != nil {
			return fmt.Errorf("lattice: compressed entry %d: %w", ord, err)
		}
		n := fp.Size()
		if n > c.k {
			return fmt.Errorf("lattice: compressed entry %d has size %d > K=%d", ord, n, c.k)
		}
		labels := make([]labeltree.LabelID, n)
		parents := make([]int32, n)
		parents[0] = -1
		for i := int32(0); int(i) < n; i++ {
			fl := fp.Label(i)
			if fl < 0 || int(fl) >= len(ids) {
				return fmt.Errorf("lattice: compressed entry %d references label %d of %d", ord, fl, len(ids))
			}
			labels[i] = ids[fl]
			if i > 0 {
				parents[i] = fp.Parent(i)
			}
		}
		p, err := labeltree.NewPattern(labels, parents)
		if err != nil {
			return fmt.Errorf("lattice: compressed entry %d: %w", ord, err)
		}
		kcs = append(kcs, kc{key: string(p.Key()), count: int64(cnt), size: n, ord: ord})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(kcs, func(a, b int) bool {
		if kcs[a].key != kcs[b].key {
			return kcs[a].key < kcs[b].key
		}
		return kcs[a].ord < kcs[b].ord
	})
	keys := make([]string, 0, len(kcs))
	counts := make([]int64, 0, len(kcs))
	sizeBytes := 0
	for i, e := range kcs {
		if i+1 < len(kcs) && kcs[i+1].key == e.key {
			continue // duplicate after relabeling: last write wins
		}
		keys = append(keys, e.key)
		counts = append(counts, e.count)
		sizeBytes += 8 + 5*e.size
	}
	r := buildCompressed(keys, counts, c.blockLen)
	r.k, r.dict, r.pruned, r.sizeBytes = c.k, c.dict, c.pruned, sizeBytes
	return r, nil
}

// ReadCompressed reads a TLCZ snapshot from r into memory and opens it.
func ReadCompressed(r io.Reader, dict *labeltree.Dict) (*Compressed, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("lattice: reading compressed snapshot: %w", err)
	}
	return OpenCompressed(data, dict)
}

// OpenCompressedFile opens a TLCZ snapshot by memory-mapping it where
// the platform supports that (falling back to a plain read), so replicas
// opening the same snapshot share page cache and pay no heap copy. The
// mapping is released when the store becomes unreachable — fleet
// eviction can simply drop the reference while estimates against the
// store are still in flight — or eagerly via Close when the caller can
// guarantee no concurrent readers.
func OpenCompressedFile(path string, dict *labeltree.Dict) (*Compressed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, unmap, err := mmapFile(f)
	if err != nil {
		return nil, err
	}
	c, err := OpenCompressed(data, dict)
	if err != nil || c.backing == nil || unmap == nil {
		// Open failed, or rebinding copied the entries onto the heap:
		// either way the mapping is no longer referenced.
		if unmap != nil {
			unmap()
		}
		return c, err
	}
	c.unmap = unmap
	runtime.SetFinalizer(c, func(cc *Compressed) {
		if cc.unmap != nil {
			cc.unmap()
		}
	})
	return c, nil
}

// Close eagerly releases an mmap'ed backing and turns the store empty
// (subsequent lookups miss rather than fault). It must not be called
// while other goroutines may still read the store; long-lived serving
// paths should instead drop the reference and let the runtime unmap it.
// Heap-backed stores need no Close; on them it is a no-op.
func (c *Compressed) Close() error {
	u := c.unmap
	if u == nil {
		return nil
	}
	c.unmap = nil
	runtime.SetFinalizer(c, nil)
	c.n = 0
	c.fences, c.jump, c.offs, c.blocks, c.backing = nil, nil, nil, nil, nil
	return u()
}

// readAllFile is the portable mmap fallback: the whole snapshot read
// onto the heap.
func readAllFile(f *os.File, size int64) ([]byte, func() error, error) {
	var buf bytes.Buffer
	if size > 0 && size == int64(int(size)) {
		buf.Grow(int(size))
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), nil, nil
}

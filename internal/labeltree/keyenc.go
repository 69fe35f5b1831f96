package labeltree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Canonical key encoding
//
// A pattern's Key is a compact byte encoding of its canonical form as an
// unordered rooted labeled tree:
//
//	enc(node) = uvarint(label) { 0x01 enc(child) }* 0x00
//
// with the children emitted in ascending byte order of their encodings.
// The marker bytes make the format prefix-decodable — after the label
// varint the next byte is unambiguously either a child marker (0x01) or
// the end marker (0x00) — so decoding is deterministic and the encoding
// is injective on isomorphism classes: two patterns have equal keys iff
// they are isomorphic as unordered trees.
//
// The encoding is process-internal and derived: keys are never
// serialized (summaries store patterns, not keys), so the format is free
// to change between versions.
//
// The encoder is allocation-light by design: it runs an iterative
// post-order over a pooled scratch state (per-node encodings are spans
// into one reusable buffer, children are sorted by comparing spans in
// place), so AppendKey into a caller-owned buffer is amortized
// zero-alloc and Key() costs exactly the one string conversion its
// comparable map-key contract requires.

const (
	keyChildMark = 0x01 // a child encoding follows
	keyEndMark   = 0x00 // end of this node's children
)

// keyScratch is the reusable state of one encoder run. The per-node child
// lists are a CSR layout (childIdx[childPos[i]:childPos[i+1]]); encodings
// are spans enc[start[i]:end[i]].
type keyScratch struct {
	enc        []byte
	start, end []int32
	childPos   []int32
	childIdx   []int32
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// grow resizes an int32 scratch slice to n without retaining old contents.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// encode computes the canonical encoding of every node of p and returns
// the root's span. The span aliases ks.enc and is valid until the next
// encode on the same scratch. After encode, each node's child list in
// childIdx is in canonical order (ascending child-encoding bytes, ties in
// ascending node order), which Canonicalize reuses directly.
func (ks *keyScratch) encode(p Pattern) []byte {
	n := len(p.labels)
	ks.start = grow(ks.start, n)
	ks.end = grow(ks.end, n)
	ks.childPos = grow(ks.childPos, n+1)
	ks.childIdx = grow(ks.childIdx, n)
	ks.enc = ks.enc[:0]

	// CSR child lists: counts, prefix-sum, fill (ascending j per node).
	pos := ks.childPos
	for i := 0; i <= n; i++ {
		pos[i] = 0
	}
	for i := 1; i < n; i++ {
		pos[p.parent[i]+1]++
	}
	for i := 0; i < n; i++ {
		pos[i+1] += pos[i]
	}
	fill := ks.childIdx[:n] // reuse as cursor-free fill via second pass
	next := ks.end          // borrow end as fill cursors before encodings are written
	copy(next, pos[:n])
	for i := 1; i < n; i++ {
		par := p.parent[i]
		fill[next[par]] = int32(i)
		next[par]++
	}

	// Post-order: parent-before-child numbering means descending index
	// visits every child before its parent.
	for i := n - 1; i >= 0; i-- {
		ks.start[i] = int32(len(ks.enc))
		ks.enc = binary.AppendUvarint(ks.enc, uint64(p.labels[i]))
		kids := ks.childIdx[pos[i]:pos[i+1]]
		// Insertion sort by encoding bytes; stable, so equal encodings
		// keep ascending node order (Canonicalize's tie-break).
		for a := 1; a < len(kids); a++ {
			c := kids[a]
			cb := ks.enc[ks.start[c]:ks.end[c]]
			b := a
			for b > 0 {
				prev := kids[b-1]
				if bytes.Compare(ks.enc[ks.start[prev]:ks.end[prev]], cb) <= 0 {
					break
				}
				kids[b] = prev
				b--
			}
			kids[b] = c
		}
		for _, c := range kids {
			ks.enc = append(ks.enc, keyChildMark)
			ks.enc = append(ks.enc, ks.enc[ks.start[c]:ks.end[c]]...)
		}
		ks.enc = append(ks.enc, keyEndMark)
		ks.end[i] = int32(len(ks.enc))
	}
	return ks.enc[ks.start[0]:ks.end[0]]
}

// encLen returns the length of the single node encoding at the start of b.
func encLen(b []byte) int {
	_, i := binary.Uvarint(b)
	for b[i] == keyChildMark {
		i++
		i += encLen(b[i:])
	}
	return i + 1 // the end marker
}

// AppendKey appends the canonical key bytes of p to buf and returns the
// extended buffer. Reusing buf across calls makes steady-state keying
// allocation-free; Key() is AppendKey plus the string conversion a
// comparable map key requires.
func (p Pattern) AppendKey(buf []byte) []byte {
	ks := keyScratchPool.Get().(*keyScratch)
	buf = append(buf, ks.encode(p)...)
	keyScratchPool.Put(ks)
	return buf
}

// DecodeKey parses a canonical key back into a Pattern. It is strict: it
// accepts exactly the byte strings the encoder produces, so
//
//	DecodeKey(k) == p, nil  ⇒  p.Key() == k
//
// Anything else — truncated input, trailing bytes, non-minimal label
// varints, labels outside the LabelID range, children out of canonical
// order, unbounded nesting — is an error, never a panic. The strictness is
// what makes the round-trip property testable (and fuzzable): every
// accepted key is a fixed point of decode∘encode.
func DecodeKey(k Key) (Pattern, error) {
	d := keyDecoder{b: []byte(k)}
	if err := d.node(-1, 1); err != nil {
		return Pattern{}, err
	}
	if d.pos != len(d.b) {
		return Pattern{}, fmt.Errorf("labeltree: %d trailing bytes after key", len(d.b)-d.pos)
	}
	return Pattern{labels: d.labels, parent: d.parents}, nil
}

type keyDecoder struct {
	b       []byte
	pos     int
	labels  []LabelID
	parents []int32
}

// node decodes one enc(node) production at d.pos, recording it under
// parent. Nodes are appended parent-before-child, preserving the Pattern
// numbering invariant.
func (d *keyDecoder) node(parent int32, depth int) error {
	if depth > maxQueryDepth {
		return fmt.Errorf("labeltree: key exceeds depth %d", maxQueryDepth)
	}
	if len(d.labels) >= maxQueryNodes {
		return fmt.Errorf("labeltree: key exceeds %d nodes", maxQueryNodes)
	}
	label, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		return fmt.Errorf("labeltree: bad label varint at key offset %d", d.pos)
	}
	// Reject non-minimal varints (a zero final group, e.g. 0x80 0x00 for
	// 0): the encoder never emits them, and accepting them would break the
	// decode∘encode fixed point.
	if n > 1 && d.b[d.pos+n-1] == 0 {
		return fmt.Errorf("labeltree: non-minimal label varint at key offset %d", d.pos)
	}
	if label > math.MaxInt32 {
		return fmt.Errorf("labeltree: label %d out of range at key offset %d", label, d.pos)
	}
	d.pos += n
	idx := int32(len(d.labels))
	d.labels = append(d.labels, LabelID(label))
	d.parents = append(d.parents, parent)
	var prev []byte
	for {
		if d.pos >= len(d.b) {
			return fmt.Errorf("labeltree: truncated key (no end marker for node %d)", idx)
		}
		switch d.b[d.pos] {
		case keyEndMark:
			d.pos++
			return nil
		case keyChildMark:
			d.pos++
			cstart := d.pos
			if err := d.node(idx, depth+1); err != nil {
				return err
			}
			span := d.b[cstart:d.pos]
			// Canonical order is non-decreasing child encodings (equal
			// spans are legal: isomorphic duplicate children).
			if prev != nil && bytes.Compare(prev, span) > 0 {
				return fmt.Errorf("labeltree: key children out of canonical order at offset %d", cstart)
			}
			prev = span
		default:
			return fmt.Errorf("labeltree: invalid key marker 0x%02x at offset %d", d.b[d.pos], d.pos)
		}
	}
}

// KeyBuilder derives the canonical keys of a pattern's one-node
// extensions incrementally. Reset caches the per-node encodings of a base
// pattern once; ChildKey(at, l) then computes AddChild(at, l).Key()
// by splicing the new leaf's encoding into the cached encodings along the
// at→root path only, instead of re-encoding (and re-sorting) the whole
// extended pattern. The level-wise miner generates every candidate this
// way, so the per-candidate keying cost is proportional to the extension
// path, not the pattern.
//
// A KeyBuilder owns its scratch state and is not safe for concurrent use.
type KeyBuilder struct {
	p         Pattern
	ks        keyScratch
	cur, next []byte
}

// NewKeyBuilder returns a KeyBuilder ready for Reset.
func NewKeyBuilder() *KeyBuilder { return &KeyBuilder{} }

// Reset caches the per-node encodings of p, the base for subsequent
// ChildKey calls.
func (kb *KeyBuilder) Reset(p Pattern) {
	kb.p = p
	kb.ks.encode(p)
}

// ChildKey returns kb's base pattern's key after attaching a new leaf
// labeled label under node at: it equals p.AddChild(at, label).Key()
// without constructing the extended pattern.
func (kb *KeyBuilder) ChildKey(at int32, label LabelID) Key {
	return Key(kb.AppendChildKey(nil, at, label))
}

// AppendChildKey is ChildKey appending the key bytes to dst, for callers
// that manage their own buffers.
func (kb *KeyBuilder) AppendChildKey(dst []byte, at int32, label LabelID) []byte {
	if kb.p.IsZero() {
		panic("labeltree: KeyBuilder used before Reset")
	}
	cur, next := kb.cur[:0], kb.next[:0]
	// The new leaf's encoding.
	cur = binary.AppendUvarint(cur, uint64(label))
	cur = append(cur, keyEndMark)

	// Rebuild encodings along the path at→root: at node `at` the leaf is
	// inserted at its sorted position among the cached children; at each
	// ancestor the modified child's old encoding is replaced, keeping the
	// rest of the (already sorted) children byte-for-byte.
	node := at
	var old []byte // cached encoding of the child replaced at this level
	for {
		span := kb.ks.enc[kb.ks.start[node]:kb.ks.end[node]]
		_, labelLen := binary.Uvarint(span)
		next = append(next, span[:labelLen]...)
		rest := span[labelLen : len(span)-1] // the (mark, child-enc) sequence
		inserted, removed := false, false
		for off := 0; off < len(rest); {
			clen := encLen(rest[off+1:])
			child := rest[off+1 : off+1+clen]
			if !removed && old != nil && bytes.Equal(child, old) {
				removed = true
				off += 1 + clen
				continue
			}
			if !inserted && bytes.Compare(cur, child) <= 0 {
				next = append(next, keyChildMark)
				next = append(next, cur...)
				inserted = true
			}
			next = append(next, keyChildMark)
			next = append(next, child...)
			off += 1 + clen
		}
		if old != nil && !removed {
			panic("labeltree: KeyBuilder cache does not match its pattern")
		}
		if !inserted {
			next = append(next, keyChildMark)
			next = append(next, cur...)
		}
		next = append(next, keyEndMark)
		cur, next = next, cur[:0]
		if node == 0 {
			break
		}
		old = kb.ks.enc[kb.ks.start[node]:kb.ks.end[node]]
		node = kb.p.parent[node]
	}
	dst = append(dst, cur...)
	kb.cur, kb.next = cur, next // retain capacity across calls
	return dst
}

// LeafSplicer is KeyBuilder's counterpart for leaf deletion: it derives
// the canonical keys of a pattern minus one or two degree-1 nodes without
// building those patterns. Reset reads the per-node encodings straight out
// of a canonical key (every node's encoding is a span of it, children in
// canonical order), numbering nodes in key preorder as DecodeKey does.
// RemoveKey and RemoveTwoKey then re-emit only the nodes on the removed
// leaves' root paths and copy every other child's span byte for byte.
// Removing a degree-1 root leaves its child's span as the whole key, a
// substring that costs no allocation.
//
// The recursive decomposition estimator enumerates every leaf pair of
// every pattern it cannot look up this way, so per-pair keying costs the
// two removed leaves' paths, not two patterns' worth of encoding.
//
// A LeafSplicer owns its scratch state and is not safe for concurrent use.
type LeafSplicer struct {
	key Key
	kb  []byte // key's bytes, for comparisons against scratch encodings
	// start, labelEnd and end delimit node i's encoding kb[start:end] and
	// its label varint kb[start:labelEnd]; next[i] is the first node after
	// i's subtree, so i's children are i+1, next[i+1], ... below next[i].
	start, labelEnd, end, next []int32
	parent                     []int32
	leaves                     []int32
	dirty                      []bool
	buf                        []byte
}

// Reset reads k, which must be a canonical key (from Key, or one DecodeKey
// accepts), as the base for subsequent removals.
func (ls *LeafSplicer) Reset(k Key) {
	ls.key = k
	ls.kb = append(ls.kb[:0], k...)
	ls.start, ls.labelEnd, ls.end, ls.next = ls.start[:0], ls.labelEnd[:0], ls.end[:0], ls.next[:0]
	ls.parent, ls.leaves = ls.parent[:0], ls.leaves[:0]
	b := ls.kb
	open := ls.leaves // the open-node stack; leaves is filled only after the walk
	kids := 0         // children seen by the root, for its degree
	for pos := 0; ; {
		idx := int32(len(ls.start))
		par := int32(-1)
		if len(open) > 0 {
			par = open[len(open)-1]
		}
		if par == 0 {
			kids++
		}
		_, n := binary.Uvarint(b[pos:])
		ls.start = append(ls.start, int32(pos))
		ls.labelEnd = append(ls.labelEnd, int32(pos+n))
		ls.end = append(ls.end, 0)
		ls.next = append(ls.next, 0)
		ls.parent = append(ls.parent, par)
		open = append(open, idx)
		pos += n
		for b[pos] == keyEndMark {
			pos++
			top := open[len(open)-1]
			open = open[:len(open)-1]
			ls.end[top] = int32(pos)
			ls.next[top] = int32(len(ls.start))
			if len(open) == 0 {
				ls.leaves = open[:0]
				ls.collectLeaves(kids)
				return
			}
		}
		pos++ // a child marker: the next node starts here
	}
}

// collectLeaves fills leaves with the degree-1 nodes in ascending order:
// every childless non-root node, and the root when it has one child.
func (ls *LeafSplicer) collectLeaves(rootKids int) {
	n := int32(len(ls.start))
	if rootKids == 1 {
		ls.leaves = append(ls.leaves, 0)
	}
	for i := int32(1); i < n; i++ {
		if ls.next[i] == i+1 {
			ls.leaves = append(ls.leaves, i)
		}
	}
	if cap(ls.dirty) < int(n) {
		ls.dirty = make([]bool, n)
	}
	ls.dirty = ls.dirty[:n]
}

// Leaves returns the base pattern's degree-1 nodes in ascending key
// preorder: the same nodes DecodeKey(k).Leaves() returns. The slice is
// valid until the next Reset.
func (ls *LeafSplicer) Leaves() []int32 { return ls.leaves }

// RemoveKey returns the key of the base pattern minus degree-1 node v: it
// equals DecodeKey(k).RemoveLeaf(v).Key().
func (ls *LeafSplicer) RemoveKey(v int32) Key {
	if v == 0 {
		return ls.key[ls.start[1]:ls.end[1]]
	}
	return ls.splice(0, v, -1)
}

// RemoveTwoKey returns the key of the base pattern minus the distinct
// degree-1 nodes u and v, which must leave at least one node: it equals
// the Key of DecodeKey(k).Subpattern over every other node.
func (ls *LeafSplicer) RemoveTwoKey(u, v int32) Key {
	if u == 0 || v == 0 {
		// The root's only child becomes the root; the other leaf's path
		// ends there.
		if u == 0 {
			u = v
		}
		return ls.splice(1, u, -1)
	}
	return ls.splice(0, u, v)
}

// splice emits the subtree under top without u and v (v may be -1),
// re-encoding the nodes from their parents up to top.
func (ls *LeafSplicer) splice(top, u, v int32) Key {
	ls.mark(top, u, true)
	ls.mark(top, v, true)
	ls.buf = ls.buf[:0]
	s, e := ls.emit(top, u, v)
	ls.mark(top, u, false)
	ls.mark(top, v, false)
	return Key(ls.buf[s:e])
}

// mark sets dirty to on for every node from r's parent up to top.
func (ls *LeafSplicer) mark(top, r int32, on bool) {
	if r < 0 {
		return
	}
	for n := ls.parent[r]; ; n = ls.parent[n] {
		ls.dirty[n] = on
		if n == top {
			return
		}
	}
}

// emit appends node i's encoding without the removed nodes u and v to buf
// and returns its span there. Clean children keep their canonical order;
// the at most two dirty ones, encoded first, merge in at their sorted
// positions.
func (ls *LeafSplicer) emit(i, u, v int32) (int, int) {
	var ds [2][2]int
	nd := 0
	for c := i + 1; c < ls.next[i]; c = ls.next[c] {
		if ls.dirty[c] {
			ds[nd][0], ds[nd][1] = ls.emit(c, u, v)
			nd++
		}
	}
	if nd == 2 && bytes.Compare(ls.buf[ds[1][0]:ds[1][1]], ls.buf[ds[0][0]:ds[0][1]]) < 0 {
		ds[0], ds[1] = ds[1], ds[0]
	}
	s := len(ls.buf)
	ls.buf = append(ls.buf, ls.kb[ls.start[i]:ls.labelEnd[i]]...)
	j := 0
	for c := i + 1; c < ls.next[i]; c = ls.next[c] {
		if c == u || c == v || ls.dirty[c] {
			continue
		}
		span := ls.kb[ls.start[c]:ls.end[c]]
		for ; j < nd && bytes.Compare(ls.buf[ds[j][0]:ds[j][1]], span) <= 0; j++ {
			ls.buf = append(ls.buf, keyChildMark)
			ls.buf = append(ls.buf, ls.buf[ds[j][0]:ds[j][1]]...)
		}
		ls.buf = append(ls.buf, keyChildMark)
		ls.buf = append(ls.buf, span...)
	}
	for ; j < nd; j++ {
		ls.buf = append(ls.buf, keyChildMark)
		ls.buf = append(ls.buf, ls.buf[ds[j][0]:ds[j][1]]...)
	}
	ls.buf = append(ls.buf, keyEndMark)
	return s, len(ls.buf)
}

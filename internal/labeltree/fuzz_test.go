package labeltree

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzQuerySyntax: the twig query parser never panics on arbitrary input
// (it sits directly behind /v1/estimate's q parameter), and everything it
// accepts survives the canonical pipeline: Canonicalize, Key, String, and
// a re-parse of the String form that keys identically.
func FuzzQuerySyntax(f *testing.F) {
	f.Add("a")
	f.Add("//laptop(brand,price)")
	f.Add("a(b,c(d,e),f)")
	f.Add("a(b,b)")
	f.Add("a((")
	f.Add("a(b,)")
	f.Add(" a ( b , c ) ")
	f.Fuzz(func(t *testing.T, src string) {
		dict := NewDict()
		p, err := ParsePattern(src, dict)
		if err != nil {
			return
		}
		if p.Size() < 1 {
			t.Fatalf("accepted %q as an empty pattern", src)
		}
		key := p.Canonicalize().Key()
		str := p.String(dict)
		back, err := ParsePattern(str, dict)
		if err != nil {
			t.Fatalf("String form %q of accepted query %q does not re-parse: %v", str, src, err)
		}
		if back.Canonicalize().Key() != key {
			t.Fatalf("re-parsed %q keys differently from %q", str, src)
		}
	})
}

// FuzzKeyDecode: DecodeKey never panics, and everything it accepts is a
// fixed point of decode∘encode — the strictness property the decoder
// documents.
func FuzzKeyDecode(f *testing.F) {
	dict := NewDict()
	for _, q := range []string{"a", "a(b,c)", "a(b(c),b(c))", "root(x(y,z))"} {
		f.Add([]byte(MustParsePattern(q, dict).Key()))
	}
	f.Add([]byte{0x80, 0x00, 0x00}) // non-minimal varint
	f.Add([]byte{0x05})             // truncated: no end marker
	f.Add([]byte{0x05, 0x00, 0x00}) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeKey(Key(data))
		if err != nil {
			return
		}
		if p.Size() < 1 {
			t.Fatalf("accepted %x as an empty pattern", data)
		}
		if got := p.Key(); !bytes.Equal([]byte(got), data) {
			t.Fatalf("decode(%x).Key() = %x; decoder accepted a non-canonical key", data, got)
		}
	})
}

// FuzzLeafSplice: for any key DecodeKey accepts and any one or two of its
// degree-1 nodes, LeafSplicer's spliced key equals decoding the key,
// removing the nodes from the Pattern (RemoveLeaf or Subpattern) and
// encoding the result. The selector bytes pick the nodes among the leaves.
func FuzzLeafSplice(f *testing.F) {
	dict := NewDict()
	for _, q := range []string{"a(b)", "a(b,c)", "a(b(c),b(c))", "root(x(y,z))", "a(b(c,d),b(c,d),e)", "r(s(t(u,v)))", "a(a(a),a)"} {
		f.Add([]byte(MustParsePattern(q, dict).Key()), uint8(0), uint8(1))
	}
	f.Fuzz(func(t *testing.T, data []byte, i, j uint8) {
		p, err := DecodeKey(Key(data))
		if err != nil {
			return
		}
		var ls LeafSplicer
		ls.Reset(Key(data))
		leaves := p.Leaves()
		if !slices.Equal(ls.Leaves(), leaves) {
			t.Fatalf("key %x: splicer leaves %v, pattern leaves %v", data, ls.Leaves(), leaves)
		}
		if len(leaves) == 0 {
			return
		}
		u := leaves[int(i)%len(leaves)]
		if got, want := ls.RemoveKey(u), p.RemoveLeaf(u).Key(); got != want {
			t.Fatalf("key %x minus node %d: spliced %x, want %x", data, u, got, want)
		}
		if p.Size() < 3 {
			return
		}
		v := leaves[int(j)%len(leaves)]
		if v == u {
			v = leaves[(int(j)+1)%len(leaves)]
		}
		keep := make([]int32, 0, p.Size()-2)
		for n := int32(0); int(n) < p.Size(); n++ {
			if n != u && n != v {
				keep = append(keep, n)
			}
		}
		if got, want := ls.RemoveTwoKey(u, v), p.Subpattern(keep).Key(); got != want {
			t.Fatalf("key %x minus nodes %d, %d: spliced %x, want %x", data, u, v, got, want)
		}
	})
}

package labeltree

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// slowKey is the original recursive string encoder, kept as the slow
// reference implementation the byte encoder (keyenc.go) is differentially
// tested against: a node encodes as "label." + "(" + sorted child
// encodings + ")", so sibling order is irrelevant. It defines the same
// isomorphism classes as Pattern.Key but not the same ordering.
func slowKey(p Pattern) string {
	children := make([][]int32, p.Size())
	for i := int32(1); int(i) < p.Size(); i++ {
		children[p.Parent(i)] = append(children[p.Parent(i)], i)
	}
	var enc func(i int32) string
	enc = func(i int32) string {
		cs := children[i]
		if len(cs) == 0 {
			return fmt.Sprintf("%d.", p.Label(i))
		}
		parts := make([]string, len(cs))
		for j, c := range cs {
			parts[j] = enc(c)
		}
		sort.Strings(parts)
		return fmt.Sprintf("%d.", p.Label(i)) + "(" + strings.Join(parts, "") + ")"
	}
	return enc(0)
}

func dictABC() (*Dict, LabelID, LabelID, LabelID, LabelID) {
	d := NewDict()
	return d, d.Intern("a"), d.Intern("b"), d.Intern("c"), d.Intern("d")
}

func TestNewPatternValidation(t *testing.T) {
	_, a, b, _, _ := dictABC()
	cases := []struct {
		name    string
		labels  []LabelID
		parent  []int32
		wantErr bool
	}{
		{"ok", []LabelID{a, b}, []int32{-1, 0}, false},
		{"empty", nil, nil, true},
		{"mismatch", []LabelID{a}, []int32{-1, 0}, true},
		{"bad root", []LabelID{a}, []int32{0}, true},
		{"forward parent", []LabelID{a, b}, []int32{-1, 1}, true},
		{"negative parent", []LabelID{a, b}, []int32{-1, -2}, true},
	}
	for _, tc := range cases {
		_, err := NewPattern(tc.labels, tc.parent)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestPatternAccessors(t *testing.T) {
	_, a, b, c, d := dictABC()
	// a(b, c(d))
	p := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2})
	if p.Size() != 4 || p.RootLabel() != a {
		t.Fatalf("size/root = %d/%d", p.Size(), p.RootLabel())
	}
	if got := p.Children(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Children(0) = %v", got)
	}
	if got := p.ChildCounts(); got[0] != 2 || got[2] != 1 || got[1] != 0 {
		t.Fatalf("ChildCounts = %v", got)
	}
	if p.Degree(0) != 2 || p.Degree(2) != 2 || p.Degree(3) != 1 {
		t.Fatalf("degrees = %d %d %d", p.Degree(0), p.Degree(2), p.Degree(3))
	}
}

func TestLeavesIncludesDegreeOneRoot(t *testing.T) {
	_, a, b, c, _ := dictABC()
	// path a/b/c: leaves are the root a and the leaf c.
	p := PathPattern(a, b, c)
	leaves := p.Leaves()
	if len(leaves) != 2 || leaves[0] != 0 || leaves[1] != 2 {
		t.Fatalf("Leaves = %v, want [0 2]", leaves)
	}
	// a(b,c): root has degree 2, not a leaf.
	q := MustPattern([]LabelID{a, b, c}, []int32{-1, 0, 0})
	leaves = q.Leaves()
	if len(leaves) != 2 || leaves[0] != 1 || leaves[1] != 2 {
		t.Fatalf("Leaves = %v, want [1 2]", leaves)
	}
}

func TestSingleNodeHasNoLeaves(t *testing.T) {
	_, a, _, _, _ := dictABC()
	if got := SingleNode(a).Leaves(); len(got) != 0 {
		t.Fatalf("Leaves of single node = %v", got)
	}
}

func TestIsPathAndPathLabels(t *testing.T) {
	_, a, b, c, d := dictABC()
	p := PathPattern(a, b, c)
	if !p.IsPath() {
		t.Fatal("path not recognized")
	}
	got := p.PathLabels()
	if len(got) != 3 || got[0] != a || got[2] != c {
		t.Fatalf("PathLabels = %v", got)
	}
	q := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2})
	if q.IsPath() {
		t.Fatal("branching pattern reported as path")
	}
}

func TestRemoveLeaf(t *testing.T) {
	_, a, b, c, d := dictABC()
	// a(b, c(d))
	p := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2})
	q := p.RemoveLeaf(3) // drop d -> a(b,c)
	if q.Size() != 3 || q.Key() != MustPattern([]LabelID{a, b, c}, []int32{-1, 0, 0}).Key() {
		t.Fatalf("RemoveLeaf(3) = %s-node pattern key %q", q.String(NewDict()), q.Key())
	}
	// removing the leaf b -> a(c(d))
	q2 := p.RemoveLeaf(1)
	want := MustPattern([]LabelID{a, c, d}, []int32{-1, 0, 1})
	if !q2.Equal(want) {
		t.Fatalf("RemoveLeaf(1) mismatch")
	}
}

func TestRemoveLeafRoot(t *testing.T) {
	_, a, b, c, _ := dictABC()
	p := PathPattern(a, b, c)
	q := p.RemoveLeaf(0) // drop root -> b/c
	if !q.Equal(PathPattern(b, c)) {
		t.Fatal("removing degree-1 root failed to promote child")
	}
}

func TestRemoveLeafPanics(t *testing.T) {
	_, a, b, c, _ := dictABC()
	p := MustPattern([]LabelID{a, b, c}, []int32{-1, 0, 0})
	for _, idx := range []int32{0} { // branching root
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RemoveLeaf(%d) did not panic", idx)
				}
			}()
			p.RemoveLeaf(idx)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RemoveLeaf on internal node did not panic")
			}
		}()
		PathPattern(a, b, c).RemoveLeaf(1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RemoveLeaf on single node did not panic")
			}
		}()
		SingleNode(a).RemoveLeaf(0)
	}()
}

func TestSubpattern(t *testing.T) {
	_, a, b, c, d := dictABC()
	// a(b, c(d))
	p := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2})
	sub := p.Subpattern([]int32{2, 3}) // c(d), rerooted at c
	if !sub.Equal(PathPattern(c, d)) {
		t.Fatal("Subpattern c(d) mismatch")
	}
	all := p.Subpattern([]int32{3, 1, 0, 2})
	if all.Key() != p.Key() {
		t.Fatal("Subpattern of all nodes changed identity")
	}
}

func TestSubpatternDisconnectedPanics(t *testing.T) {
	_, a, b, c, d := dictABC()
	p := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("disconnected Subpattern did not panic")
		}
	}()
	p.Subpattern([]int32{1, 3}) // b and d are not connected
}

func TestAddChild(t *testing.T) {
	_, a, b, c, _ := dictABC()
	p := SingleNode(a).AddChild(0, b).AddChild(0, c)
	if !p.Equal(MustPattern([]LabelID{a, b, c}, []int32{-1, 0, 0})) {
		t.Fatal("AddChild chain mismatch")
	}
}

func TestKeyUnorderedInvariance(t *testing.T) {
	_, a, b, c, d := dictABC()
	p1 := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2}) // a(b, c(d))
	p2 := MustPattern([]LabelID{a, c, d, b}, []int32{-1, 0, 1, 0}) // a(c(d), b)
	if p1.Key() != p2.Key() {
		t.Fatalf("sibling order changed key: %q vs %q", p1.Key(), p2.Key())
	}
	p3 := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 1, 0}) // a(b(c), d)
	if p1.Key() == p3.Key() {
		t.Fatal("different shapes collided")
	}
}

func TestKeyDistinguishesLabels(t *testing.T) {
	_, a, b, _, _ := dictABC()
	if SingleNode(a).Key() == SingleNode(b).Key() {
		t.Fatal("labels collided")
	}
	// Multi-digit labels must not be ambiguous with concatenations:
	// pattern with children {1, 2} vs child {12} alone.
	d := NewDict()
	var ids []LabelID
	for i := 0; i < 13; i++ {
		ids = append(ids, d.Intern(string(rune('A'+i))))
	}
	p := MustPattern([]LabelID{ids[0], ids[1], ids[2]}, []int32{-1, 0, 0})
	q := MustPattern([]LabelID{ids[0], ids[12]}, []int32{-1, 0})
	if p.Key() == q.Key() {
		t.Fatal("encoding ambiguity between {1,2} and {12}")
	}
}

func TestPreorder(t *testing.T) {
	_, a, b, c, d := dictABC()
	// a(b, c(d)); preorder by numbering: a b c d.
	p := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2})
	got := p.Preorder()
	want := []int32{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Preorder = %v, want %v", got, want)
		}
	}
	// Non-contiguous numbering: a with children c(d) then b, stored as
	// labels [a c b d] parents [-1 0 0 1]: preorder is a, c, d, b.
	p2 := MustPattern([]LabelID{a, c, b, d}, []int32{-1, 0, 0, 1})
	got = p2.Preorder()
	want = []int32{0, 1, 3, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Preorder = %v, want %v", got, want)
		}
	}
}

func TestPreorderPrefixIsConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDict()
	var alphabet []LabelID
	for i := 0; i < 5; i++ {
		alphabet = append(alphabet, d.Intern(string(rune('a'+i))))
	}
	for trial := 0; trial < 200; trial++ {
		size := 2 + rng.Intn(9)
		labels := make([]LabelID, size)
		parent := make([]int32, size)
		parent[0] = -1
		for i := 0; i < size; i++ {
			labels[i] = alphabet[rng.Intn(len(alphabet))]
			if i > 0 {
				parent[i] = int32(rng.Intn(i))
			}
		}
		p := MustPattern(labels, parent)
		order := p.Preorder()
		for k := 1; k <= size; k++ {
			// Every preorder prefix must form a connected subtree:
			// Subpattern panics otherwise.
			_ = p.Subpattern(order[:k])
		}
	}
}

func TestParseAndString(t *testing.T) {
	d := NewDict()
	cases := []string{
		"a",
		"a(b)",
		"a(b,c)",
		"a(b,c(d))",
		"laptop(brand,price)",
	}
	for _, src := range cases {
		p, err := ParsePattern(src, d)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", src, err)
		}
		round, err := ParsePattern(p.String(d), d)
		if err != nil {
			t.Fatalf("reparse of %q: %v", p.String(d), err)
		}
		if round.Key() != p.Key() {
			t.Fatalf("round trip of %q changed identity", src)
		}
	}
}

func TestParseDescendantPrefixAndSpaces(t *testing.T) {
	d := NewDict()
	p := MustParsePattern("//laptop( brand , price )", d)
	q := MustParsePattern("laptop(price,brand)", d)
	if p.Key() != q.Key() {
		t.Fatal("whitespace or // prefix changed identity")
	}
}

func TestParseErrors(t *testing.T) {
	d := NewDict()
	for _, src := range []string{"", "(", "a(", "a(b", "a(b,)", "a)b", "a b"} {
		if _, err := ParsePattern(src, d); err == nil {
			t.Errorf("ParsePattern(%q) succeeded, want error", src)
		}
	}
}

// TestParseKnownPattern: the lookup-only parse matches ParsePattern on
// known labels, fails on an unknown one with its name, lets a syntax
// error win over an unknown label, and never grows the dictionary.
func TestParseKnownPattern(t *testing.T) {
	d := NewDict()
	want := MustParsePattern("laptop(brand,price)", d)
	n := d.Len()
	got, err := ParseKnownPattern("//laptop( brand , price )", d)
	if err != nil || !got.Equal(want) {
		t.Fatalf("ParseKnownPattern = %v, %v; want %v", got, err, want)
	}
	var unknown *UnknownLabelError
	if _, err := ParseKnownPattern("laptop(brand,zz)", d); !errors.As(err, &unknown) || unknown.Label != "zz" {
		t.Fatalf("unknown label: err = %v, want *UnknownLabelError for zz", err)
	}
	if _, err := ParseKnownPattern("zz(brand", d); err == nil || errors.As(err, &unknown) {
		t.Fatalf("syntax error with unknown label: err = %v, want the syntax error", err)
	}
	if d.Len() != n {
		t.Fatalf("dictionary grew from %d to %d labels", n, d.Len())
	}
}

func TestParsePath(t *testing.T) {
	d := NewDict()
	p, err := ParsePath("//a/b/c", d)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.Lookup("a")
	b, _ := d.Lookup("b")
	c, _ := d.Lookup("c")
	if !p.Equal(PathPattern(a, b, c)) {
		t.Fatal("ParsePath mismatch")
	}
	if _, err := ParsePath("a//b", d); err == nil {
		t.Fatal("empty step accepted")
	}
}

func TestRelabelAndClone(t *testing.T) {
	_, a, b, c, _ := dictABC()
	p := PathPattern(a, b)
	q := p.Relabel(1, c)
	if p.Label(1) != b || q.Label(1) != c {
		t.Fatal("Relabel mutated the original or failed")
	}
	cl := p.Clone()
	if !cl.Equal(p) {
		t.Fatal("Clone not equal")
	}
}

func TestStringDeterministicAcrossIsomorphs(t *testing.T) {
	d := NewDict()
	a, b, c := d.Intern("a"), d.Intern("b"), d.Intern("c")
	p1 := MustPattern([]LabelID{a, b, c}, []int32{-1, 0, 0})
	p2 := MustPattern([]LabelID{a, c, b}, []int32{-1, 0, 0})
	if p1.String(d) != p2.String(d) {
		t.Fatalf("String differs across isomorphic patterns: %q vs %q", p1.String(d), p2.String(d))
	}
}

func TestCanonicalize(t *testing.T) {
	_, a, b, c, d := dictABC()
	p1 := MustPattern([]LabelID{a, c, d, b}, []int32{-1, 0, 1, 0}) // a(c(d), b)
	p2 := MustPattern([]LabelID{a, b, c, d}, []int32{-1, 0, 0, 2}) // a(b, c(d))
	c1, c2 := p1.Canonicalize(), p2.Canonicalize()
	if c1.Key() != p1.Key() {
		t.Fatal("Canonicalize changed identity")
	}
	for i := int32(0); int(i) < c1.Size(); i++ {
		if c1.Label(i) != c2.Label(i) || c1.Parent(i) != c2.Parent(i) {
			t.Fatalf("canonical forms differ at node %d", i)
		}
	}
}

func TestCanonicalizeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	d := NewDict()
	var alphabet []LabelID
	for i := 0; i < 3; i++ {
		alphabet = append(alphabet, d.Intern(string(rune('a'+i))))
	}
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(9)
		labels := make([]LabelID, size)
		parent := make([]int32, size)
		parent[0] = -1
		for i := 0; i < size; i++ {
			labels[i] = alphabet[rng.Intn(len(alphabet))]
			if i > 0 {
				parent[i] = int32(rng.Intn(i))
			}
		}
		p := MustPattern(labels, parent)
		cp := p.Canonicalize()
		if cp.Key() != p.Key() {
			t.Fatal("Canonicalize changed identity")
		}
		// Canonical form must be a fixpoint.
		ccp := cp.Canonicalize()
		for i := int32(0); int(i) < cp.Size(); i++ {
			if cp.Label(i) != ccp.Label(i) || cp.Parent(i) != ccp.Parent(i) {
				t.Fatal("Canonicalize not idempotent")
			}
		}
	}
}

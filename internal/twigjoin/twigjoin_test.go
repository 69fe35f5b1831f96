package twigjoin

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
	"treelattice/internal/xmlparse"
)

func parseDoc(t *testing.T, doc string) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dict
}

// bruteDescendant counts matches allowing every edge to be
// ancestor-descendant, by exhaustive injective assignment.
func bruteDescendant(x *Index, q Query) int64 {
	p := q.Pattern
	assigned := make([]int32, p.Size())
	used := make(map[int32]bool)
	var total int64
	var rec func(i int32)
	rec = func(i int32) {
		if int(i) == p.Size() {
			total++
			return
		}
		for _, v := range x.Stream(p.Label(i)) {
			if used[v] {
				continue
			}
			if par := p.Parent(i); par >= 0 {
				pv := assigned[par]
				if q.Axes[i] == Child {
					if x.tree.Parent(v) != pv {
						continue
					}
				} else if !x.IsAncestor(pv, v) {
					continue
				}
			} else if q.Axes[0] == Child && v != 0 {
				continue
			}
			used[v] = true
			assigned[i] = v
			rec(i + 1)
			used[v] = false
		}
	}
	rec(0)
	return total
}

func TestIndexRegions(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b><c/></b><d/></a>`)
	x := NewIndex(tr)
	if x.Start(0) != 0 || x.End(0) != 4 {
		t.Fatalf("root region = [%d,%d)", x.Start(0), x.End(0))
	}
	b, _ := dict.Lookup("b")
	bn := x.Stream(b)[0]
	if x.Start(bn) != 1 || x.End(bn) != 3 {
		t.Fatalf("region(b) = [%d,%d)", x.Start(bn), x.End(bn))
	}
	c, _ := dict.Lookup("c")
	cn := x.Stream(c)[0]
	if !x.IsAncestor(0, cn) || !x.IsAncestor(bn, cn) || x.IsAncestor(cn, bn) {
		t.Fatal("IsAncestor wrong")
	}
	if got := x.DescendantsByLabel(0, c); len(got) != 1 || got[0] != cn {
		t.Fatalf("DescendantsByLabel = %v", got)
	}
	if got := x.ChildrenByLabel(0, b); len(got) != 1 || got[0] != bn {
		t.Fatalf("ChildrenByLabel = %v", got)
	}
}

func TestIndexStreamsInDocumentOrder(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(5))
	tr := treetest.RandomTree(rng, 200, alphabet, dict)
	x := NewIndex(tr)
	for _, l := range alphabet {
		s := x.Stream(l)
		for i := 1; i < len(s); i++ {
			if x.Start(s[i-1]) >= x.Start(s[i]) {
				t.Fatal("stream not in document order")
			}
		}
	}
}

func TestChildOnlyMatchesMatchCounter(t *testing.T) {
	// The counter, enumeration and the reference DP must agree exactly on
	// child-axis queries (Definition 1).
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(21))
	positives := 0
	for trial := 0; trial < 200; trial++ {
		tr := treetest.RandomTree(rng, 2+rng.Intn(60), alphabet, dict)
		x := NewIndex(tr)
		p := treetest.RandomPattern(rng, 1+rng.Intn(5), alphabet)
		q := MustQuery(p, nil)
		want := refCount(tr, p)
		if got := Count(x, q); got != want {
			t.Fatalf("trial %d: counter=%d reference=%d for %s", trial, got, want, p.String(dict))
		}
		if got := Enumerate(x, q, nil, keepGoing).Matches; got != want {
			t.Fatalf("trial %d: enumeration=%d reference=%d for %s", trial, got, want, p.String(dict))
		}
		if want > 0 {
			positives++
		}
	}
	if positives < 20 {
		t.Fatalf("only %d positive trials", positives)
	}
}

func TestDescendantAxisAgainstBrute(t *testing.T) {
	dict, alphabet := treetest.Alphabet(2)
	rng := rand.New(rand.NewSource(33))
	positives := 0
	for trial := 0; trial < 150; trial++ {
		tr := treetest.RandomTree(rng, 2+rng.Intn(30), alphabet, dict)
		x := NewIndex(tr)
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		axes := make([]Axis, p.Size())
		axes[0] = Descendant
		for i := 1; i < p.Size(); i++ {
			if rng.Intn(2) == 0 {
				axes[i] = Descendant
			}
		}
		q := MustQuery(p, axes)
		want := bruteDescendant(x, q)
		if got := Count(x, q); got != want {
			t.Fatalf("trial %d: counter=%d brute=%d for %s", trial, got, want, q.String(dict))
		}
		if got := Enumerate(x, q, nil, keepGoing).Matches; got != want {
			t.Fatalf("trial %d: enumeration=%d brute=%d for %s", trial, got, want, q.String(dict))
		}
		if want > 0 {
			positives++
		}
	}
	if positives < 15 {
		t.Fatalf("only %d positive trials", positives)
	}
}

func TestAnchoredRoot(t *testing.T) {
	tr, dict := parseDoc(t, `<a><a><b/></a></a>`)
	x := NewIndex(tr)
	// //a(b): matches both the inner a (child b) -> 1 match.
	free := MustParseQuery("//a(b)", dict)
	if got := Count(x, free); got != 1 {
		t.Fatalf("free count = %d, want 1", got)
	}
	// /a(//b): anchored at root, descendant b -> 1 match.
	anchored := MustParseQuery("/a(//b)", dict)
	if got := Count(x, anchored); got != 1 {
		t.Fatalf("anchored count = %d, want 1", got)
	}
	// /b: root is not labeled b.
	if got := Count(x, MustParseQuery("/b", dict)); got != 0 {
		t.Fatalf("mislabeled anchor count = %d", got)
	}
}

func TestEnumerateTuplesAreValid(t *testing.T) {
	dict, alphabet := treetest.Alphabet(2)
	rng := rand.New(rand.NewSource(3))
	tr := treetest.RandomTree(rng, 40, alphabet, dict)
	x := NewIndex(tr)
	p := treetest.RandomPattern(rng, 3, alphabet)
	q := MustQuery(p, nil)
	seen := 0
	Enumerate(x, q, nil, func(m Match) bool {
		seen++
		used := make(map[int32]bool)
		for i := int32(0); int(i) < p.Size(); i++ {
			v := m[i]
			if tr.Label(v) != p.Label(i) {
				t.Fatalf("label mismatch in tuple %v", m)
			}
			if used[v] {
				t.Fatalf("non-injective tuple %v", m)
			}
			used[v] = true
			if par := p.Parent(i); par >= 0 && tr.Parent(v) != m[par] {
				t.Fatalf("edge violated in tuple %v", m)
			}
		}
		return true
	})
	if int64(seen) != Count(x, q) {
		t.Fatal("emit count != Count")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	tr, dict := parseDoc(t, `<r><a/><a/><a/></r>`)
	x := NewIndex(tr)
	q := MustParseQuery("//a", dict)
	calls := 0
	st := Enumerate(x, q, nil, func(Match) bool {
		calls++
		return calls < 2
	})
	if calls != 2 || st.Matches != 2 {
		t.Fatalf("calls=%d matches=%d, want 2", calls, st.Matches)
	}
}

func TestBindOrderValidation(t *testing.T) {
	tr, dict := parseDoc(t, `<r><a/></r>`)
	x := NewIndex(tr)
	q := MustParseQuery("//r(a)", dict)
	// Valid alternative order.
	if st := Enumerate(x, q, []int32{0, 1}, func(Match) bool { return true }); st.Matches != 1 {
		t.Fatal("valid order failed")
	}
	for _, bad := range [][]int32{{1, 0}, {0, 0}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v accepted", bad)
				}
			}()
			Enumerate(x, q, bad, func(Match) bool { return true })
		}()
	}
}

func TestQueryParseAndString(t *testing.T) {
	dict := labeltree.NewDict()
	for _, src := range []string{"//a", "/a", "//a(b,//c(d))", "/a(//b(c),d)"} {
		q := MustParseQuery(src, dict)
		round := MustParseQuery(q.String(dict), dict)
		if round.String(dict) != q.String(dict) {
			t.Fatalf("round trip of %q: %q vs %q", src, round.String(dict), q.String(dict))
		}
	}
	if _, err := ParseQuery("//a(", dict); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := ParseQuery("//a)b", dict); err == nil {
		t.Fatal("trailing input accepted")
	}
	q := MustParseQuery("//a(b,c)", dict)
	if !q.ChildOnly() {
		t.Fatal("child-only not detected")
	}
	if MustParseQuery("//a(//b)", dict).ChildOnly() {
		t.Fatal("descendant edge missed")
	}
}

// TestParseKnownQuery: the lookup-only parse matches ParseQuery on
// known labels, fails on an unknown one with its name, lets a syntax
// error win over an unknown label, and never grows the dictionary.
func TestParseKnownQuery(t *testing.T) {
	dict := labeltree.NewDict()
	want := MustParseQuery("/a(b,//c)", dict)
	n := dict.Len()
	got, err := ParseKnownQuery("/a(b,//c)", dict)
	if err != nil || got.String(dict) != want.String(dict) {
		t.Fatalf("ParseKnownQuery = %v, %v; want %v", got, err, want)
	}
	var unknown *labeltree.UnknownLabelError
	if _, err := ParseKnownQuery("//a(//zz)", dict); !errors.As(err, &unknown) || unknown.Label != "zz" {
		t.Fatalf("unknown label: err = %v, want *UnknownLabelError for zz", err)
	}
	if _, err := ParseKnownQuery("//zz(b", dict); err == nil || errors.As(err, &unknown) {
		t.Fatalf("syntax error with unknown label: err = %v, want the syntax error", err)
	}
	if dict.Len() != n {
		t.Fatalf("dictionary grew from %d to %d labels", n, dict.Len())
	}
}

func TestNewQueryValidation(t *testing.T) {
	dict := labeltree.NewDict()
	p := labeltree.MustParsePattern("a(b)", dict)
	if _, err := NewQuery(p, []Axis{Descendant}); err == nil {
		t.Fatal("wrong axes length accepted")
	}
}

func TestStatsCandidates(t *testing.T) {
	tr, dict := parseDoc(t, `<r><a><b/></a><a/><a/></r>`)
	x := NewIndex(tr)
	st := Enumerate(x, MustParseQuery("//a(b)", dict), nil, func(Match) bool { return true })
	if st.Matches != 1 {
		t.Fatalf("matches = %d", st.Matches)
	}
	if st.Candidates < 3 {
		t.Fatalf("candidates = %d, want >= 3 (all a nodes scanned)", st.Candidates)
	}
}

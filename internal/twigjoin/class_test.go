package twigjoin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// canonicalForms returns every node's subtree as a canonical string, its
// label followed by its children's strings sorted, and every subtree's
// node count: two subtrees are equal as unordered labeled trees exactly
// when their strings are.
func canonicalForms(tr *labeltree.Tree) (canon []string, size []int32) {
	n := tr.Size()
	canon, size = make([]string, n), make([]int32, n)
	for v := int32(n) - 1; v >= 0; v-- {
		var kids []string
		size[v] = 1
		for _, c := range tr.Children(v) {
			kids = append(kids, canon[c])
			size[v] += size[c]
		}
		slices.Sort(kids)
		canon[v] = fmt.Sprintf("%d(%s)", tr.Label(v), strings.Join(kids, ","))
	}
	return canon, size
}

// checkClasses fails unless x's subtree classes are exactly the classes
// of equal canonical strings, and every region spans its subtree.
func checkClasses(t *testing.T, name string, x *Index) {
	t.Helper()
	tr := x.Tree()
	canon, size := canonicalForms(tr)
	classOf := make(map[string]int32)
	formOf := make(map[int32]string)
	for v := int32(0); int(v) < tr.Size(); v++ {
		c := x.class[v]
		if prior, ok := classOf[canon[v]]; ok && prior != c {
			t.Fatalf("%s: node %d has class %d, an equal subtree has class %d", name, v, c, prior)
		}
		if prior, ok := formOf[c]; ok && prior != canon[v] {
			t.Fatalf("%s: class %d holds the unequal subtrees %s and %s", name, c, prior, canon[v])
		}
		classOf[canon[v]], formOf[c] = c, canon[v]
		if got := x.End(v) - x.Start(v); got != size[v] {
			t.Fatalf("%s: node %d spans %d starts, its subtree has %d nodes", name, v, got, size[v])
		}
	}
	if len(formOf) != len(x.size) {
		t.Fatalf("%s: %d classes numbered, %d occur", name, len(x.size), len(formOf))
	}
}

// TestSubtreeClassesMatchCanonicalForms: on every datagen profile and on
// random trees, two nodes share a class exactly when their subtrees have
// one canonical string, and each node's region is as long as its subtree.
func TestSubtreeClassesMatchCanonicalForms(t *testing.T) {
	for _, profile := range datagen.AllProfiles() {
		tr, err := datagen.Generate(datagen.Config{Profile: profile, Scale: 3000, Seed: 7}, labeltree.NewDict())
		if err != nil {
			t.Fatal(err)
		}
		x := NewIndex(tr)
		checkClasses(t, string(profile), x)
		t.Logf("%s: %d nodes, %d classes", profile, tr.Size(), len(x.size))
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		dict, alphabet := treetest.Alphabet(1 + rng.Intn(3))
		tr := treetest.RandomTree(rng, 1+rng.Intn(300), alphabet, dict)
		checkClasses(t, fmt.Sprintf("random trial %d", trial), NewIndex(tr))
	}
}

// TestSubtreeClassesIgnoreSiblingOrder: subtrees that differ only in the
// order of siblings share a class; changing one deep leaf splits the
// subtree and each of its ancestors off, and leaves the rest alone.
func TestSubtreeClassesIgnoreSiblingOrder(t *testing.T) {
	tr, dict := parseDoc(t, `<r>`+
		`<a><b><c><d/></c><e/></b><f/></a>`+
		`<a><f/><b><e/><c><d/></c></b></a>`+
		`<a><b><c><g/></c><e/></b><f/></a>`+
		`</r>`)
	x := NewIndex(tr)
	a, _ := dict.Lookup("a")
	b, _ := dict.Lookup("b")
	c, _ := dict.Lookup("c")
	f, _ := dict.Lookup("f")
	for _, l := range []labeltree.LabelID{a, b, c} {
		s := x.Stream(l)
		if x.class[s[0]] != x.class[s[1]] {
			t.Errorf("%s: sibling permutations got classes %d and %d", dict.Name(l), x.class[s[0]], x.class[s[1]])
		}
		if x.class[s[0]] == x.class[s[2]] {
			t.Errorf("%s: a changed deep leaf kept class %d", dict.Name(l), x.class[s[0]])
		}
	}
	if s := x.Stream(f); x.class[s[0]] != x.class[s[2]] {
		t.Errorf("f: an untouched sibling subtree changed class")
	}
}

// repetitiveIndex indexes a document of n equal r subtrees, each with
// two x children holding a y.
func repetitiveIndex(t *testing.T, n int) (*Index, *labeltree.Dict) {
	t.Helper()
	tr, dict := parseDoc(t, "<root>"+strings.Repeat("<r><x><y/></x><x><y/></x></r>", n)+"</root>")
	return NewIndex(tr), dict
}

// TestCounterReuseAfterBudgetStop: a count the node budget stops stores
// nothing in the memo that a later count of the same Counter could read,
// so the Counter counts exactly afterwards, on a document whose repeated
// subtrees the memo answers.
func TestCounterReuseAfterBudgetStop(t *testing.T) {
	x, dict := repetitiveIndex(t, 50)
	for _, src := range []string{"//r(x(y))", "//root(r(x,x))", "//r(x(y),x)"} {
		q := MustParseQuery(src, dict)
		want := Enumerate(x, q, nil, keepGoing).Matches
		c, err := NewCounter(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := int64(1); b < 40; b++ {
			budget := b
			if _, err := c.CountContext(context.Background(), x, &budget); !errors.Is(err, ErrNodeBudget) {
				t.Fatalf("%s: budget %d: err = %v, want ErrNodeBudget", src, b, err)
			}
			st, err := c.CountContext(context.Background(), x, nil)
			if err != nil || st.Matches != want {
				t.Fatalf("%s: after a stop at budget %d: count %d (%v), want %d", src, b, st.Matches, err, want)
			}
			if c.hits == 0 {
				t.Fatalf("%s: the memo answered nothing on 50 equal subtrees", src)
			}
		}
	}
}

// TestMemoStaysAtSlotBound: a 1,000-node path query over a path of 2,000
// nodes, where no two subtrees are equal, asks for a memo of about two
// million keys; the table stays at maxMemoSlots and the count is exact.
func TestMemoStaysAtSlotBound(t *testing.T) {
	dict := labeltree.NewDict()
	b := labeltree.NewBuilder(dict)
	v := b.AddRoot("a")
	for i := 1; i < 2000; i++ {
		v = b.AddChild(v, "a")
	}
	x := NewIndex(b.Build())
	if len(x.size) != 2000 {
		t.Fatalf("a path of 2,000 nodes has %d classes", len(x.size))
	}
	a, _ := dict.Lookup("a")
	labels, parents := make([]labeltree.LabelID, 1000), make([]int32, 1000)
	for i := range parents {
		labels[i], parents[i] = a, int32(i)-1
	}
	c, err := NewCounter(MustQuery(labeltree.MustPattern(labels, parents), nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.CountContext(context.Background(), x, nil)
	if err != nil || st.Matches != 1001 {
		t.Fatalf("count = %d (%v), want 1001", st.Matches, err)
	}
	if len(c.memo.slots) != maxMemoSlots {
		t.Fatalf("memo holds %d slots, want its bound %d", len(c.memo.slots), maxMemoSlots)
	}
}

// TestMemoTablesAcrossGoroutines: counts on several goroutines at once,
// over two documents with different class counts, take memo tables from
// the shared pool and hand them back, one-shot and batched (CountAllContext
// keeps one per worker), and every count stays exact.
func TestMemoTablesAcrossGoroutines(t *testing.T) {
	rep, dict := repetitiveIndex(t, 40)
	var alphabet []labeltree.LabelID
	for _, name := range []string{"r", "x", "y"} {
		l, _ := dict.Lookup(name)
		alphabet = append(alphabet, l)
	}
	random := NewIndex(treetest.RandomTree(rand.New(rand.NewSource(5)), 400, alphabet, dict))
	var patterns []labeltree.Pattern
	for _, src := range []string{"r(x(y))", "root(r(x,x))", "r(x(y),x)", "x(y,r(x))", "y(y(x),r)"} {
		patterns = append(patterns, labeltree.MustParsePattern(src, dict))
	}
	indexes := []*Index{rep, random}
	want := make([][]int64, len(indexes))
	for d, x := range indexes {
		for _, p := range patterns {
			want[d] = append(want[d], refCount(x.Tree(), p))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				d := (g + i) % len(indexes)
				k := i % len(patterns)
				st, err := CountContext(context.Background(), indexes[d], MustQuery(patterns[k], nil), nil, nil)
				if err != nil || st.Matches != want[d][k] {
					t.Errorf("goroutine %d: %s on document %d: %d (%v), want %d", g, patterns[k].String(dict), d, st.Matches, err, want[d][k])
					return
				}
				all, err := CountAllContext(context.Background(), indexes[d], patterns, 2)
				if err != nil || !slices.Equal(all, want[d]) {
					t.Errorf("goroutine %d: batch on document %d: %v (%v), want %v", g, d, all, err, want[d])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

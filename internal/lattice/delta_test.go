package lattice

import (
	"testing"

	"treelattice/internal/labeltree"
)

// incOf builds a one-document increment summary from (pattern, count)
// pairs.
func incOf(t *testing.T, d *labeltree.Dict, k int, pairs map[string]int64) *Summary {
	t.Helper()
	s := New(k, d)
	for src, n := range pairs {
		p := labeltree.MustParsePattern(src, d)
		if err := s.Add(p, n); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestDeltaApplyIsCopyOnWrite(t *testing.T) {
	d := labeltree.NewDict()
	d0 := NewDelta(4, d)
	d1, err := d0.Apply(incOf(t, d, 4, map[string]int64{"a": 3, "a(b)": 2}))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := d1.Apply(incOf(t, d, 4, map[string]int64{"a": 1, "c": 5}))
	if err != nil {
		t.Fatal(err)
	}
	if !d0.Empty() || d0.Len() != 0 {
		t.Fatal("Apply mutated the receiver")
	}
	if d1.Docs() != 1 || d2.Docs() != 2 {
		t.Fatalf("docs = %d, %d", d1.Docs(), d2.Docs())
	}
	a := labeltree.MustParsePattern("a", d)
	if got, _ := d1.Count(a); got != 3 {
		t.Fatalf("d1 count(a) = %d", got)
	}
	if got, _ := d2.Count(a); got != 4 {
		t.Fatalf("d2 count(a) = %d", got)
	}
	if got, ok := d2.CountKey(labeltree.MustParsePattern("c", d).Key()); !ok || got != 5 {
		t.Fatalf("d2 count(c) = %d,%v", got, ok)
	}
}

// TestDeltaSubtract: after a refreeze cut is folded into the base,
// Subtract leaves exactly the post-cut counts; a full cut leaves an
// empty delta.
func TestDeltaSubtract(t *testing.T) {
	d := labeltree.NewDict()
	cur := NewDelta(4, d)
	var err error
	for _, inc := range []map[string]int64{
		{"a": 3, "a(b)": 2},
		{"a": 1, "c": 5},
		{"c": 2},
	} {
		if cur, err = cur.Apply(incOf(t, d, 4, inc)); err != nil {
			t.Fatal(err)
		}
	}
	cut := NewDelta(4, d)
	for _, inc := range []map[string]int64{
		{"a": 3, "a(b)": 2},
		{"a": 1, "c": 5},
	} {
		if cut, err = cut.Apply(incOf(t, d, 4, inc)); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := cur.Subtract(cut)
	if err != nil {
		t.Fatal(err)
	}
	if rest.Docs() != 1 || rest.Len() != 1 {
		t.Fatalf("rest docs=%d len=%d", rest.Docs(), rest.Len())
	}
	if got, _ := rest.Count(labeltree.MustParsePattern("c", d)); got != 2 {
		t.Fatalf("rest count(c) = %d", got)
	}
	if _, ok := rest.Count(labeltree.MustParsePattern("a", d)); ok {
		t.Fatal("fully folded count survived the subtract")
	}
	empty, err := rest.Subtract(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !empty.Empty() {
		t.Fatal("subtracting a delta from itself is not empty")
	}
	// Subtracting something that was never applied must error, not go
	// negative silently.
	bogus, _ := NewDelta(4, d).Apply(incOf(t, d, 4, map[string]int64{"zzz": 99}))
	if _, err := rest.Subtract(bogus); err == nil {
		t.Fatal("negative subtract accepted")
	}
}

func TestSummaryClone(t *testing.T) {
	d := labeltree.NewDict()
	s := incOf(t, d, 4, map[string]int64{"a": 1, "a(b,c)": 7})
	c := s.Clone()
	if c.K() != s.K() || c.Len() != s.Len() {
		t.Fatalf("clone shape: K=%d len=%d", c.K(), c.Len())
	}
	if err := c.AddCount(labeltree.MustParsePattern("a", d), 10); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Count(labeltree.MustParsePattern("a", d)); got != 1 {
		t.Fatal("clone shares storage with the original")
	}
}

// TestDeltaFoldInto: a fold adds the delta's additions and takes its
// retractions away; retracting counts the base never held fails.
func TestDeltaFoldInto(t *testing.T) {
	d := labeltree.NewDict()
	base := incOf(t, d, 4, map[string]int64{"a": 3, "a(b)": 2})
	cur, err := NewDelta(4, d).Apply(incOf(t, d, 4, map[string]int64{"a": 1, "c": 5}))
	if err != nil {
		t.Fatal(err)
	}
	if cur, err = cur.Retract(incOf(t, d, 4, map[string]int64{"a(b)": 2})); err != nil {
		t.Fatal(err)
	}
	folded := base.Clone()
	if err := cur.FoldInto(folded); err != nil {
		t.Fatal(err)
	}
	for src, want := range map[string]int64{"a": 4, "c": 5} {
		if got, ok := folded.Count(labeltree.MustParsePattern(src, d)); !ok || got != want {
			t.Fatalf("folded count(%s) = %d,%v want %d", src, got, ok, want)
		}
	}
	if _, ok := folded.Count(labeltree.MustParsePattern("a(b)", d)); ok {
		t.Fatal("a fully retracted pattern survived the fold")
	}
	over, err := NewDelta(4, d).Retract(incOf(t, d, 4, map[string]int64{"a": 9}))
	if err != nil {
		t.Fatal(err)
	}
	if err := over.FoldInto(base.Clone()); err == nil {
		t.Fatal("folding an over-removal accepted")
	}
}

package sampling

import (
	"context"
	"errors"
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

func sampleDocs(t *testing.T) ([]*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	docs := []string{
		`<lib>` + strings.Repeat(`<book><title/><author><name/></author></book>`, 20) + `</lib>`,
		`<lib>` + strings.Repeat(`<book><title/><year/></book>`, 15) +
			strings.Repeat(`<journal><title/></journal>`, 5) + `</lib>`,
	}
	trees := make([]*labeltree.Tree, len(docs))
	for i, d := range docs {
		tr, err := xmlparse.Parse(strings.NewReader(d), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
	}
	return trees, dict
}

func indexes(trees []*labeltree.Tree) []*twigjoin.Index {
	out := make([]*twigjoin.Index, len(trees))
	for i, tr := range trees {
		out[i] = twigjoin.NewIndex(tr)
	}
	return out
}

func exactCount(trees []*labeltree.Tree, q labeltree.Pattern) int64 {
	var total int64
	for _, tr := range trees {
		total += enumCount(twigjoin.NewIndex(tr), q)
	}
	return total
}

// TestExactWhenFullyProbed: probing every root occurrence makes each
// probe exact and the scaling factor 1, so the estimate equals the true
// count.
func TestExactWhenFullyProbed(t *testing.T) {
	trees, dict := sampleDocs(t)
	e, err := New(indexes(trees), Options{Probes: 1 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, qs := range []string{"book(title)", "book(title,author(name))", "book(year)", "journal(title)"} {
		q, err := labeltree.ParsePattern(qs, dict)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EstimateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(exactCount(trees, q))
		if got != want {
			t.Errorf("%s: estimate %v != exact %v", qs, got, want)
		}
	}
}

// TestDeterministic: the same (seed, query, corpus) must sample the same
// candidates and return bit-identical estimates, run after run and across
// estimator instances.
func TestDeterministic(t *testing.T) {
	trees, dict := sampleDocs(t)
	q, err := labeltree.ParsePattern("book(title)", dict)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := New(indexes(trees), Options{Probes: 5, Seed: 42})
	b, _ := New(indexes(trees), Options{Probes: 5, Seed: 42})
	va, err := a.EstimateContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		vb, err := b.EstimateContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if vb != va {
			t.Fatalf("run %d: estimate %v != first run %v", i, vb, va)
		}
	}
}

// TestUnknownRootLabelZero: a root label absent from every document has
// nothing to probe; the estimate is exactly zero, not an error.
func TestUnknownRootLabelZero(t *testing.T) {
	trees, dict := sampleDocs(t)
	dict.Intern("ghost")
	q, err := labeltree.ParsePattern("ghost", dict)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := New(indexes(trees), Options{})
	got, err := e.EstimateContext(context.Background(), q)
	if err != nil || got != 0 {
		t.Fatalf("got (%v, %v), want (0, nil)", got, err)
	}
}

// TestBudgetExhausted: a node budget too small for even one probe fails
// with ErrBudgetExhausted; a budget that lets some probes finish returns
// a scaled partial estimate instead.
func TestBudgetExhausted(t *testing.T) {
	trees, dict := sampleDocs(t)
	// Each <lib> probe must visit every matching book child (15 or 20), so
	// a 1-node budget dies inside the first probe with nothing completed.
	q, err := labeltree.ParsePattern("lib(book)", dict)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := New(indexes(trees), Options{Probes: 64, MaxNodes: 1, Seed: 1})
	if _, err := e.EstimateContext(context.Background(), q); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("budget 1: got %v, want ErrBudgetExhausted", err)
	}
	// 25 nodes finish whichever lib comes first (≤20 visits) and die in the
	// second: one completed probe still yields a scaled partial estimate.
	partial, _ := New(indexes(trees), Options{Probes: 64, MaxNodes: 25, Seed: 1})
	got, err := partial.EstimateContext(context.Background(), q)
	if err != nil {
		t.Fatalf("partial budget: %v", err)
	}
	if got <= 0 {
		t.Fatalf("partial budget: estimate %v, want > 0", got)
	}
}

// TestCancellation: an expired context aborts the run with its error.
func TestCancellation(t *testing.T) {
	trees, dict := sampleDocs(t)
	q, err := labeltree.ParsePattern("book(title)", dict)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := New(indexes(trees), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EstimateContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestEmptyCorpusRejected: New on no documents is a construction error.
func TestEmptyCorpusRejected(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("New(nil) must fail")
	}
}

// enumCount counts p's matches by enumeration, independently of the
// counter the code under test uses.
func enumCount(x *twigjoin.Index, p labeltree.Pattern) int64 {
	return twigjoin.Enumerate(x, twigjoin.MustQuery(p, nil), nil, func(twigjoin.Match) bool { return true }).Matches
}

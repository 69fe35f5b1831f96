package corpus

import (
	"context"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
)

const docDup = `<computer><laptops><laptop><brand/><brand/><price/></laptop><laptop><brand/><price/><price/></laptop><laptop/></laptops></computer>`

// TestExactCountMatchesEnumeration: ExactCount counts with the product
// counter over the corpus indexes; summed enumeration over fresh indexes
// is the independent reference, duplicate sibling labels included.
func TestExactCountMatchesEnumeration(t *testing.T) {
	c := createCorpus(t)
	for name, doc := range map[string]string{"a": docA, "b": docB, "dup": docDup} {
		if err := c.AddXML(name, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	positives := 0
	for _, qs := range []string{
		"laptop", "laptop(brand)", "laptop(brand,brand)", "laptop(brand,price)",
		"laptop(brand,brand,price)", "laptop(price,price)", "laptops(laptop,laptop)",
		"laptops(laptop(brand),laptop(price))", "laptops(laptop(brand,brand),laptop)",
		"computer(laptops(laptop(brand,price),laptop(brand)))", "laptop(laptop)",
	} {
		q := labeltree.MustParsePattern(qs, c.Dict())
		var want int64
		for _, tr := range c.Trees() {
			want += twigjoin.Enumerate(twigjoin.NewIndex(tr), twigjoin.MustQuery(q, nil), nil,
				func(twigjoin.Match) bool { return true }).Matches
		}
		if got := c.ExactCount(q); got != want {
			t.Errorf("%s: ExactCount = %d, enumeration = %d", qs, got, want)
		}
		if want > 0 {
			positives++
		}
	}
	if positives < 8 {
		t.Fatalf("only %d positive queries", positives)
	}
}

// TestIndexerDropsRemovedDocs: every fold trims the corpus region-index
// cache to the documents the epoch lists, while a request pinned to an
// older epoch still answers (rebuilding the index it needs).
func TestIndexerDropsRemovedDocs(t *testing.T) {
	c := createCorpus(t)
	for _, name := range []string{"a", "b", "c"} {
		if err := c.AddXML(name, strings.NewReader(docB)); err != nil {
			t.Fatal(err)
		}
	}
	ix := c.TwigIndexer()
	ix.ForAll(c.Trees())
	pinned := c.Summary()
	q := twigjoin.MustParseQuery("//laptop(brand)", c.Dict())

	if err := c.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(c.Docs()) || ix.Len() != 2 {
		t.Fatalf("after removal and fold: %d indexes for %d documents", ix.Len(), len(c.Docs()))
	}
	res, err := pinned.ExecuteQueryContext(context.Background(), q, core.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 6 || res.DocsScanned != 3 {
		t.Fatalf("pinned epoch answered %d over %d documents, want 6 over 3", res.Count, res.DocsScanned)
	}

	// The pinned query rebuilt a's index; the next fold drops it again.
	if err := c.AddXML("d", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	ix.ForAll(c.Trees())
	if err := c.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != len(c.Docs()) {
		t.Fatalf("after the next fold: %d indexes for %d documents", ix.Len(), len(c.Docs()))
	}
}

package core

import (
	"context"
	"fmt"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
)

// TestExecutionSharesEpochIndexes: a published epoch's first query
// execution counts over the region indexes of the shared cache the
// handle carries, instead of indexing every document privately — so
// publishing epochs never multiplies the indexes in memory.
func TestExecutionSharesEpochIndexes(t *testing.T) {
	dict := labeltree.NewDict()
	trees := epochTrees(t, dict, 0, 4)
	base, err := BuildForestContext(context.Background(), trees, BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := twigjoin.NewIndexer()
	handle := &EpochHandle{}
	handle.SetTwigIndexer(ix)
	for gen := 1; gen <= 2; gen++ {
		ep := handle.Publish(base.Freeze(), nil, trees, epochNames(len(trees)))
		q, err := ep.Summary.ParseTwigQuery("person(name)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.Summary.ExecuteQueryContext(context.Background(), q, QueryOptions{}); err != nil {
			t.Fatal(err)
		}
		if ix.Len() != len(trees) {
			t.Fatalf("epoch %d: shared cache holds %d indexes for %d documents", gen, ix.Len(), len(trees))
		}
	}
}

// TestExecuteQueryCountsAndMaterializes pins ExecuteQueryContext against
// enumeration: for every limit, the count is the enumerated total, the
// materialized tuples are the first min(limit, count) in enumeration
// order, and only queries whose repeated labels can bind one data node
// (Counter.Fallback) report the enumeration fallback.
func TestExecuteQueryCountsAndMaterializes(t *testing.T) {
	dict := labeltree.NewDict()
	trees := epochTrees(t, dict, 0, 5)
	sum, err := BuildForestContext(context.Background(), trees, BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q        string
		fallback bool
	}{
		{"//person(name,address(city))", false},
		{"//site(//name,//price)", false},
		{"//items(item,item(name))", false},
		{"//site(//item(name),//name)", true},
		{"//people(//name,//name)", false},
		{"//people(//name,person(name))", true},
	} {
		q, err := sum.ParseTwigQuery(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for i, tr := range trees {
			twigjoin.Enumerate(twigjoin.NewIndex(tr), q, nil, func(m twigjoin.Match) bool {
				want = append(want, fmt.Sprintf("doc[%d]%v", i, m))
				return true
			})
		}
		if len(want) == 0 {
			t.Fatalf("%s: no matches; pick a query that occurs", tc.q)
		}
		for _, limit := range []int{0, 1, 3, len(want), len(want) + 5} {
			res, err := sum.ExecuteQueryContext(context.Background(), q, QueryOptions{Limit: limit, NaiveOrder: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != int64(len(want)) || res.Stats.Matches != res.Count {
				t.Fatalf("%s limit %d: count %d (stats %d), enumeration %d", tc.q, limit, res.Count, res.Stats.Matches, len(want))
			}
			if res.Fallback != tc.fallback {
				t.Fatalf("%s: fallback = %v, want %v", tc.q, res.Fallback, tc.fallback)
			}
			n := min(limit, len(want))
			if len(res.Matches) != n || res.Truncated != (limit > 0 && limit < len(want)) {
				t.Fatalf("%s limit %d: %d tuples, truncated %v", tc.q, limit, len(res.Matches), res.Truncated)
			}
			for j, m := range res.Matches {
				if got := fmt.Sprintf("%s%v", m.Doc, twigjoin.Match(m.Nodes)); got != want[j] {
					t.Fatalf("%s limit %d: tuple %d = %s, want %s", tc.q, limit, j, got, want[j])
				}
			}
		}
	}
}

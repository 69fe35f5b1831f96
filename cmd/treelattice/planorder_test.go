package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/datagen"
	"treelattice/internal/twigjoin"
)

// matchKey canonicalizes one match tuple for set comparison: the bind
// order changes enumeration order, never the set of tuples.
func matchKey(m core.QueryMatch) string {
	return fmt.Sprintf("%s|%v", m.Doc, m.Nodes)
}

// matchSet sorts the serialized tuples of a result.
func matchSet(r *core.QueryResult) []string {
	keys := make([]string, len(r.Matches))
	for i, m := range r.Matches {
		keys[i] = matchKey(m)
	}
	sort.Strings(keys)
	return keys
}

// assertPlanOrderSame executes every query under the planner-chosen and
// the stored (naive) bind order and requires bit-identical counts; when
// neither side truncates, the materialized match sets must be identical
// too. Queries that blow the node budget under either order are skipped
// — the combinatorial outliers the benchmark matrix also excludes.
func assertPlanOrderSame(t *testing.T, sum *core.Summary, qs []twigjoin.Query, label string) {
	t.Helper()
	const limit = 500
	ctx := context.Background()
	checked := 0
	for qi, q := range qs {
		planned, err := sum.ExecuteQueryContext(ctx, q,
			core.QueryOptions{Limit: limit, NodeBudget: queryPlanNodeBudget})
		if err != nil {
			t.Fatalf("%s: query %d planned exec: %v", label, qi, err)
		}
		naive, err := sum.ExecuteQueryContext(ctx, q,
			core.QueryOptions{Limit: limit, NodeBudget: queryPlanNodeBudget, NaiveOrder: true})
		if err != nil {
			t.Fatalf("%s: query %d naive exec: %v", label, qi, err)
		}
		if planned.Degraded || naive.Degraded {
			continue
		}
		if planned.Count != naive.Count {
			t.Fatalf("%s: query %d: planned count %d != naive count %d",
				label, qi, planned.Count, naive.Count)
		}
		if !planned.Truncated && !naive.Truncated {
			p, n := matchSet(planned), matchSet(naive)
			for i := range p {
				if p[i] != n[i] {
					t.Fatalf("%s: query %d: match sets differ at %d: %q vs %q",
						label, qi, i, p[i], n[i])
				}
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("%s: every query was skipped; differential checked nothing", label)
	}
}

// TestPlanOrderDifferential is the executor's correctness gate for
// planner-driven bind orders: on every Table 3 profile, the
// planner-chosen order must produce bit-identical match sets and counts
// to the stored-numbering baseline — on the map-backed lattice, after
// Freeze (TLAT snapshot store), after Compress (TLCZ store), and again
// on the fresh epoch summary published by a zero-downtime ingest
// refreeze. The backends drive different estimate plumbing into the
// planner; none of them may change an answer.
func TestPlanOrderDifferential(t *testing.T) {
	for _, profile := range datagen.AllProfiles() {
		t.Run(string(profile), func(t *testing.T) {
			dir := t.TempDir()
			c, err := generatedCorpus(dir, profile, 1200, 3, 17)
			if err != nil {
				t.Fatal(err)
			}
			sum := c.Summary()
			qs, err := queryPlanQueries(sum, c.Trees(), c.Dict(), 17)
			if err != nil {
				t.Fatal(err)
			}
			if len(qs) > 20 {
				qs = qs[:20]
			}

			// The corpus serves its frozen snapshot; a map-backed summary
			// mined over the same documents covers the other backends.
			mapped, err := core.BuildForestContext(context.Background(), c.Trees(), core.BuildOptions{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			assertPlanOrderSame(t, mapped, qs, "map")
			assertPlanOrderSame(t, sum, qs, "frozen")
			assertPlanOrderSame(t, mapped.Compress(), qs, "compressed")

			// A new epoch: ingest two more generated documents and refreeze,
			// then rerun the differential against the published summary.
			if err := c.EnableIngest(corpus.IngestOptions{}); err != nil {
				t.Fatal(err)
			}
			defer c.DisableIngest()
			for i := 0; i < 2; i++ {
				tree, err := datagen.Generate(datagen.Config{
					Profile: profile, Scale: 300, Seed: int64(100 + i),
				}, c.Dict())
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				writeTreeXML(&b, tree, 0)
				name := fmt.Sprintf("%s-ingest-%d", profile, i)
				if err := c.AddXML(name, strings.NewReader(b.String())); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Refreeze(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertPlanOrderSame(t, c.Summary(), qs, "post-ingest epoch")
		})
	}
}

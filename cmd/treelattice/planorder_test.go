package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
	"treelattice/internal/xmlparse"
)

// queryPlanNodeBudget caps candidates per differential execution: a
// sampled query that exceeds it under either bind order is a
// combinatorial outlier (repeated labels force factorial injectivity
// backtracking) and is skipped.
const queryPlanNodeBudget = 2_000_000

// queryPlanQueries samples the differential's twig queries: positive
// patterns of 5–8 nodes from every document plus as many
// zero-selectivity relabellings, rendered with a leading "//" so matches
// root anywhere. Pure chains are dropped — a chain's bind order is
// forced (parent before child), so only branching twigs give the
// planner a choice. The same seed yields the same queries.
func queryPlanQueries(sum *core.Summary, trees []*labeltree.Tree, dict *labeltree.Dict, seed int64) ([]twigjoin.Query, error) {
	sizes := []int{5, 6, 7, 8}
	var pos, neg []labeltree.Pattern
	for i, t := range trees {
		// Offset the seed per document so identical documents do not
		// contribute identical queries.
		opts := workload.Options{Sizes: sizes, PerSize: 40, Seed: seed + int64(i)*1_000_003}
		p, err := workload.Positive(t, opts)
		if err != nil {
			return nil, err
		}
		n, err := workload.Negative(t, p, opts)
		if err != nil {
			return nil, err
		}
		for _, size := range sizes {
			for _, q := range p[size] {
				pos = append(pos, q.Pattern)
			}
			for _, q := range n[size] {
				neg = append(neg, q.Pattern)
			}
		}
	}
	// Half the set is zero-selectivity — the selective-branch case the
	// estimates exist to exploit: a planned order binds the impossible
	// branch first, where a naive one enumerates the fat branches before
	// finding nothing to join them to.
	if len(neg) > len(pos) {
		neg = neg[:len(pos)]
	}
	ps := append(pos, neg...)
	rand.New(rand.NewSource(seed+7)).Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })

	// Sibling order is shuffled before rendering: a sampled pattern
	// inherits document order, which would make the naive order an
	// accidentally informed one.
	rng := rand.New(rand.NewSource(seed*31 + 7))
	qs := make([]twigjoin.Query, 0, len(ps))
	for _, p := range ps {
		q, err := sum.ParseTwigQuery("//" + renderShuffled(p, dict, rng))
		if err != nil {
			continue // a sampled pattern the twig grammar rejects
		}
		if hasBranch(q) {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("documents produced no branching twig queries")
	}
	return qs, nil
}

// renderShuffled renders a pattern in twig syntax with uniformly random
// sibling order at every node.
func renderShuffled(p labeltree.Pattern, dict *labeltree.Dict, rng *rand.Rand) string {
	kids := make([][]int32, p.Size())
	for i := int32(1); int(i) < p.Size(); i++ {
		kids[p.Parent(i)] = append(kids[p.Parent(i)], i)
	}
	var sb strings.Builder
	var rec func(i int32)
	rec = func(i int32) {
		sb.WriteString(dict.Name(p.Label(i)))
		c := kids[i]
		if len(c) == 0 {
			return
		}
		rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
		sb.WriteByte('(')
		for j, ch := range c {
			if j > 0 {
				sb.WriteByte(',')
			}
			rec(ch)
		}
		sb.WriteByte(')')
	}
	rec(0)
	return sb.String()
}

// hasBranch reports whether any query node has two or more children.
func hasBranch(q twigjoin.Query) bool {
	p := q.Pattern
	kids := make([]int, p.Size())
	for i := int32(1); int(i) < p.Size(); i++ {
		kids[p.Parent(i)]++
		if kids[p.Parent(i)] >= 2 {
			return true
		}
	}
	return false
}

// generatedCorpus creates a corpus in dir holding one synthetic document.
func generatedCorpus(dir string, profile datagen.Profile, scale, k int, seed int64) (*corpus.Corpus, error) {
	c, err := corpus.Create(dir, corpus.Options{K: k})
	if err != nil {
		return nil, err
	}
	tree, err := datagen.Generate(datagen.Config{Profile: profile, Scale: scale, Seed: seed}, labeltree.NewDict())
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := xmlparse.Write(&b, tree); err != nil {
		return nil, err
	}
	if err := c.AddXML(string(profile), &b); err != nil {
		return nil, err
	}
	return c, nil
}

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
// — combinatorial outliers both orders lose to alike.
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
				var b bytes.Buffer
				if err := xmlparse.Write(&b, tree); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s-ingest-%d", profile, i)
				if err := c.AddXML(name, &b); err != nil {
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

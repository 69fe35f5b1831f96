package twigjoin_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/planner"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
)

// enumBudget caps the reference enumeration; a grown query whose match
// space exceeds it is skipped.
const enumBudget = 2_000_000

// growQuery samples a query with at least one match from x's document. It
// binds the root to a random data node (the document root when anchored),
// then attaches each new query node under a random earlier one, bound to
// an unused child — or, with probability descP, an unused proper
// descendant — of that node's binding. Data siblings often share a label,
// so duplicate sibling labels arise naturally.
func growQuery(rng *rand.Rand, x *twigjoin.Index, size int, descP float64, anchored bool) twigjoin.Query {
	tr := x.Tree()
	root := int32(0)
	if !anchored {
		root = int32(rng.Intn(tr.Size()))
	}
	bind := []int32{root}
	labels := []labeltree.LabelID{tr.Label(root)}
	parents := []int32{-1}
	axes := []twigjoin.Axis{twigjoin.Descendant}
	if anchored {
		axes[0] = twigjoin.Child
	}
	used := map[int32]bool{root: true}
	for tries := 0; len(bind) < size && tries < 8*size; tries++ {
		at := int32(rng.Intn(len(bind)))
		axis := twigjoin.Child
		var pool []int32
		if rng.Float64() < descP {
			axis = twigjoin.Descendant
			for v := bind[at] + 1; int(v) < tr.Size(); v++ {
				if x.IsAncestor(bind[at], v) {
					pool = append(pool, v)
				}
			}
		} else {
			pool = tr.Children(bind[at])
		}
		if len(pool) == 0 {
			continue
		}
		v := pool[rng.Intn(len(pool))]
		if used[v] {
			continue
		}
		used[v] = true
		bind = append(bind, v)
		labels = append(labels, tr.Label(v))
		parents = append(parents, at)
		axes = append(axes, axis)
	}
	return twigjoin.MustQuery(labeltree.MustPattern(labels, parents), axes)
}

// distinctSiblings reports whether no two children of a query node share
// a label.
func distinctSiblings(q twigjoin.Query) bool {
	p := q.Pattern
	for i := int32(0); int(i) < p.Size(); i++ {
		seen := map[labeltree.LabelID]bool{}
		for _, c := range p.Children(i) {
			if seen[p.Label(c)] {
				return false
			}
			seen[p.Label(c)] = true
		}
	}
	return true
}

// diffStats tallies what a differential run covered.
type diffStats struct {
	queries, positives, descendant, dupSiblings, anchored, fallback, bounded int
}

// checkCounter runs q under one bind order: the counter with a node budget
// that does not run out must equal enumeration under the same order and
// charge the budget exactly its candidates, plus the subset-DP steps of
// any same-label group; child-only twigs must also equal the reference
// DP; and with pairwise-distinct sibling labels under a planner order, the
// counter must visit no more candidates than enumeration does. It reports
// false when enumeration blew its cap.
func checkCounter(t *testing.T, x *twigjoin.Index, q twigjoin.Query, order []int32, planned bool, dict *labeltree.Dict, st *diffStats) bool {
	t.Helper()
	ctx := context.Background()
	cap := int64(enumBudget)
	enum, err := twigjoin.EnumerateContext(ctx, x, q, order, &cap, func(twigjoin.Match) bool { return true })
	if errors.Is(err, twigjoin.ErrNodeBudget) {
		return false
	}
	if err != nil {
		t.Fatal(err)
	}
	c, err := twigjoin.NewCounter(q, order)
	if err != nil {
		t.Fatal(err)
	}
	const plenty = int64(1) << 50
	budget := plenty
	got, err := c.CountContext(ctx, x, &budget)
	if err != nil {
		t.Fatalf("%s order %v: %v", q.String(dict), order, err)
	}
	if got.Matches != enum.Matches {
		t.Fatalf("%s order %v: counter %d, enumeration %d", q.String(dict), order, got.Matches, enum.Matches)
	}
	// Same-label groups also charge their subset-DP steps.
	if charged := plenty - budget; charged < got.Candidates ||
		charged != got.Candidates && (c.Fallback() || distinctSiblings(q)) {
		t.Fatalf("%s: budget charged %d for %d candidates", q.String(dict), charged, got.Candidates)
	}
	if q.Axes[0] == twigjoin.Descendant && q.ChildOnly() {
		if ref := twigjoin.RefCount(x.Tree(), q.Pattern); ref != got.Matches {
			t.Fatalf("%s: counter %d, reference DP %d", q.String(dict), got.Matches, ref)
		}
	}
	if planned && distinctSiblings(q) {
		st.bounded++
		if got.Candidates > enum.Candidates {
			t.Fatalf("%s order %v: counter visited %d candidates, enumeration %d",
				q.String(dict), order, got.Candidates, enum.Candidates)
		}
	}
	if c.Fallback() {
		st.fallback++
	}
	if got.Matches > 0 {
		st.positives++
	}
	return true
}

// runDifferential grows n queries over tr and checks each under the
// naive and the planner-chosen order.
func runDifferential(t *testing.T, rng *rand.Rand, tr *labeltree.Tree, n int) diffStats {
	t.Helper()
	x := twigjoin.NewIndex(tr)
	sum, err := mine.Mine(tr, 3, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := estimate.NewRecursive(sum, true)
	labels := tr.DistinctLabels()
	var st diffStats
	for i := 0; i < n; i++ {
		anchored := rng.Intn(6) == 0
		q := growQuery(rng, x, 1+rng.Intn(6), []float64{0, 0.3, 0.7}[rng.Intn(3)], anchored)
		if rng.Intn(5) == 0 {
			// A relabeled node usually leaves no match at all.
			at := int32(rng.Intn(q.Pattern.Size()))
			q = twigjoin.MustQuery(q.Pattern.Relabel(at, labels[rng.Intn(len(labels))]), q.Axes)
		}
		if !checkCounter(t, x, q, nil, false, tr.Dict(), &st) ||
			!checkCounter(t, x, q, planner.Choose(q, est).Order, true, tr.Dict(), &st) {
			continue
		}
		st.queries++
		if !q.ChildOnly() {
			st.descendant++
		}
		if !distinctSiblings(q) {
			st.dupSiblings++
		}
		if anchored {
			st.anchored++
		}
	}
	return st
}

// TestCounterDifferential: on all four datagen profiles and on random
// trees, over child-only and "//" twigs, duplicate sibling labels and
// "/"-anchored roots, under naive and planner orders, the counter equals
// enumeration (and the reference DP on child-only twigs), and on
// distinct sibling labels never visits more candidates.
func TestCounterDifferential(t *testing.T) {
	for i, profile := range datagen.AllProfiles() {
		t.Run(string(profile), func(t *testing.T) {
			dict := labeltree.NewDict()
			tr, err := datagen.Generate(datagen.Config{Profile: profile, Scale: 600, Seed: 11}, dict)
			if err != nil {
				t.Fatal(err)
			}
			st := runDifferential(t, rand.New(rand.NewSource(int64(i+1))), tr, 300)
			assertCoverage(t, st)
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		var all diffStats
		for trial := 0; trial < 30; trial++ {
			dict, alphabet := treetest.Alphabet(3)
			st := runDifferential(t, rng, treetest.RandomTree(rng, 20+rng.Intn(150), alphabet, dict), 15)
			all.queries += st.queries
			all.positives += st.positives
			all.descendant += st.descendant
			all.dupSiblings += st.dupSiblings
			all.anchored += st.anchored
			all.fallback += st.fallback
			all.bounded += st.bounded
		}
		assertCoverage(t, all)
	})
}

func assertCoverage(t *testing.T, st diffStats) {
	t.Helper()
	t.Logf("covered %+v", st)
	for name, n := range map[string]int{
		"checked queries": st.queries, "positive counts": st.positives,
		"descendant twigs": st.descendant, "duplicate sibling labels": st.dupSiblings,
		"anchored roots": st.anchored, "fallback counts": st.fallback,
		"work-bounded planner runs": st.bounded,
	} {
		if n == 0 {
			t.Errorf("differential covered no %s", name)
		}
	}
}

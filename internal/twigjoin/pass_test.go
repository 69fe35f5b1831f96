package twigjoin_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
)

// passWorkers is the GOMAXPROCS the pass tests run under, so that the
// race detector sees workers interleave on any host.
const passWorkers = 4

// passCorpus is the four datagen profiles as one corpus of 48 small
// documents over one dictionary, each with its own seed.
func passCorpus(t *testing.T) []*labeltree.Tree {
	t.Helper()
	dict := labeltree.NewDict()
	var trees []*labeltree.Tree
	for i := 0; i < 48; i++ {
		p := datagen.AllProfiles()[i%4]
		tr, err := datagen.Generate(datagen.Config{Profile: p, Scale: 300 + 10*i, Seed: int64(i + 1)}, dict)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

// randomForest is n random trees over a three-label alphabet.
func randomForest(rng *rand.Rand, n int) []*labeltree.Tree {
	dict, alphabet := treetest.Alphabet(3)
	trees := make([]*labeltree.Tree, n)
	for i := range trees {
		trees[i] = treetest.RandomTree(rng, 20+rng.Intn(500), alphabet, dict)
	}
	return trees
}

// sequentialScan counts q document by document with one Counter under
// one shared budget (nil = none), stopping at the first error: the scan
// the corpus pass replaces.
func sequentialScan(t *testing.T, ix *twigjoin.Indexer, trees []*labeltree.Tree, q twigjoin.Query, budget *int64) (twigjoin.CorpusCount, error) {
	t.Helper()
	c, err := twigjoin.NewCounter(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	res := twigjoin.CorpusCount{Counts: make([]int64, len(trees))}
	for i, tr := range trees {
		res.Scanned++
		st, err := c.CountContext(context.Background(), ix.For(tr), budget)
		res.Counts[i] = st.Matches
		res.Stats.Candidates += st.Candidates
		res.Stats.Matches += st.Matches
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// pass runs CountCorpusContext for q in stored order.
func pass(t *testing.T, ctx context.Context, ix *twigjoin.Indexer, trees []*labeltree.Tree, q twigjoin.Query, budget *int64) (twigjoin.CorpusCount, error) {
	t.Helper()
	c, err := twigjoin.NewCounter(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	return c.CountCorpusContext(ctx, ix, trees, budget)
}

// passCoverage tallies the query kinds a pass test checked.
type passCoverage struct {
	queries, positives, descendant, anchored, dupSiblings, fallback, budgeted int
}

// checkPass checks one query over trees: the pass's counts and work equal
// the per-document counter's; a budget never charges more than it holds,
// never stops a pass that needs at most the budget less
// (workers−1)·BudgetChunk units, and with one worker stops where the
// sequential scan stops, with the same partial counts.
func checkPass(t *testing.T, ix *twigjoin.Indexer, trees []*labeltree.Tree, q twigjoin.Query, dict *labeltree.Dict, cov *passCoverage) {
	t.Helper()
	name := q.String(dict)
	want, err := sequentialScan(t, ix, trees, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pass(t, context.Background(), ix, trees, q, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got.Counts, want.Counts) || got.Stats != want.Stats || got.Scanned != len(trees) {
		t.Fatalf("%s: pass %v %+v scanned %d, per-document counter %v %+v",
			name, got.Counts, got.Stats, got.Scanned, want.Counts, want.Stats)
	}

	c, err := twigjoin.NewCounter(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	cov.queries++
	cov.fallback += b2i(c.Fallback())
	cov.positives += b2i(want.Stats.Matches > 0)
	cov.descendant += b2i(!q.ChildOnly())
	cov.anchored += b2i(q.Axes[0] == twigjoin.Child)
	cov.dupSiblings += b2i(!distinctSiblings(q))
	c.Release()

	const plenty = int64(1) << 50
	left := plenty
	if _, err := pass(t, context.Background(), ix, trees, q, &left); err != nil {
		t.Fatalf("%s: %v under a budget that cannot run out", name, err)
	}
	need := plenty - left
	if need < want.Stats.Candidates {
		t.Fatalf("%s: charged %d units for %d candidates", name, need, want.Stats.Candidates)
	}
	slack := int64(passWorkers-1) * twigjoin.BudgetChunk
	if need <= slack {
		return // too little work for the bounds to say anything
	}
	cov.budgeted++
	for _, b := range []int64{0, 1, need / 3, need / 2, need - slack - 1, need - 1, need, need + slack} {
		if b < 0 {
			continue
		}
		left := b
		res, err := pass(t, context.Background(), ix, trees, q, &left)
		if left < 0 || left > b {
			t.Fatalf("%s: budget %d: %d left", name, b, left)
		}
		switch {
		case err == nil:
			if !slices.Equal(res.Counts, want.Counts) || b-left != need {
				t.Fatalf("%s: budget %d: counts %v charging %d, want %v charging %d", name, b, res.Counts, b-left, want.Counts, need)
			}
		case errors.Is(err, twigjoin.ErrNodeBudget):
			if b >= need+slack {
				t.Fatalf("%s: budget %d stopped a pass that needs %d", name, b, need)
			}
			if left > slack {
				t.Fatalf("%s: budget %d stopped the pass with %d units unspent", name, b, left)
			}
		default:
			t.Fatalf("%s: budget %d: %v", name, b, err)
		}

		// One worker stops where the sequential scan does.
		prev := runtime.GOMAXPROCS(1)
		oneLeft, seqLeft := b, b
		one, oneErr := pass(t, context.Background(), ix, trees, q, &oneLeft)
		runtime.GOMAXPROCS(prev)
		seq, seqErr := sequentialScan(t, ix, trees, q, &seqLeft)
		if !errors.Is(oneErr, seqErr) || oneLeft != seqLeft || one.Scanned != seq.Scanned ||
			one.Stats != seq.Stats || !slices.Equal(one.Counts, seq.Counts) {
			t.Fatalf("%s: budget %d: one worker %v %+v scanned %d left %d (%v), sequential %v %+v scanned %d left %d (%v)",
				name, b, one.Counts, one.Stats, one.Scanned, oneLeft, oneErr, seq.Counts, seq.Stats, seq.Scanned, seqLeft, seqErr)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCorpusPassMatchesCounter: on the four datagen profiles as one
// 48-document corpus and on random forests, over child, "//", "/"-rooted,
// same-label-sibling and fallback twigs, the parallel pass counts each
// document as the per-document counter does, with the same work, and
// shares its node budget as CountCorpusContext promises.
func TestCorpusPassMatchesCounter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(passWorkers))
	var cov passCoverage
	rng := rand.New(rand.NewSource(41))

	trees := passCorpus(t)
	ix := twigjoin.NewIndexer()
	dict := trees[0].Dict()
	labels := dict.Len()
	for i := 0; i < 40; i++ {
		x := ix.For(trees[rng.Intn(len(trees))])
		q := growQuery(rng, x, 2+rng.Intn(5), []float64{0, 0.4}[i%2], i%5 == 0)
		if i%4 == 3 {
			// A relabeled node mostly leaves no match, and can make a
			// fallback twig.
			at := int32(rng.Intn(q.Pattern.Size()))
			q = twigjoin.MustQuery(q.Pattern.Relabel(at, labeltree.LabelID(rng.Intn(labels))), q.Axes)
		}
		checkPass(t, ix, trees, q, dict, &cov)
	}

	for f := 0; f < 3; f++ {
		forest := randomForest(rng, 24+rng.Intn(40))
		fix := twigjoin.NewIndexer()
		fdict := forest[0].Dict()
		for _, src := range []string{
			"//l0(l1,l2)", "//l0(//l1,//l2(l0))", "/l0(l1(l2))", "//l0(l1,l1)",
			"//l1(//l2,//l2,l0)", "//l0(l1,//l1)", "//l0(//l1(l2),//l1(l2))",
		} {
			checkPass(t, fix, forest, twigjoin.MustParseQuery(src, fdict), fdict, &cov)
		}
	}

	t.Logf("covered %+v", cov)
	for name, n := range map[string]int{
		"positive counts": cov.positives, "descendant twigs": cov.descendant,
		"anchored roots": cov.anchored, "same-label siblings": cov.dupSiblings,
		"fallback counts": cov.fallback, "budgeted passes": cov.budgeted,
	} {
		if n == 0 {
			t.Errorf("covered no %s", name)
		}
	}
}

// cancelAfter reports context.Canceled from its n-th Err call on, from
// any goroutine.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCorpusPassCancel: a context done before or during the pass stops
// every worker, and the pass returns its error, not a budget stop, even
// under a node budget.
func TestCorpusPassCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(passWorkers))
	trees := passCorpus(t)
	ix := twigjoin.NewIndexer()
	q := twigjoin.MustParseQuery("//"+trees[0].Dict().Name(trees[0].Label(0)), trees[0].Dict())
	full, err := pass(t, context.Background(), ix, trees, q, nil)
	if err != nil || full.Stats.Matches == 0 {
		t.Fatalf("full pass: %+v %v", full.Stats, err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	budget := int64(1) << 40
	if res, err := pass(t, canceled, ix, trees, q, &budget); !errors.Is(err, context.Canceled) || res.Stats.Candidates != 0 {
		t.Fatalf("canceled before the pass: %+v %v, want no work and context.Canceled", res.Stats, err)
	}

	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(8)
	budget = int64(1) << 40
	res, err := pass(t, ctx, ix, trees, q, &budget)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled during the pass: err = %v, want context.Canceled", err)
	}
	if res.Scanned >= len(trees)/2 {
		t.Fatalf("canceled during the pass: %d of %d documents began", res.Scanned, len(trees))
	}
}

// TestCorpusPassPanic: a panic in any worker reaches the caller once
// every worker has returned.
func TestCorpusPassPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(passWorkers))
	trees := passCorpus(t)[:8]
	// A nil tree is a caller's bug: indexing it panics.
	trees = append(trees, nil, nil, nil)
	q := twigjoin.MustParseQuery("//"+trees[0].Dict().Name(trees[0].Label(0)), trees[0].Dict())
	defer func() {
		if recover() == nil {
			t.Fatal("the pass returned over a nil tree")
		}
	}()
	pass(t, context.Background(), twigjoin.NewIndexer(), trees, q, nil)
}

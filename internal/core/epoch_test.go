package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/xmlparse"
)

// epochDoc returns one of a few structurally distinct documents, so
// bases and deltas built from different subsets have different counts.
func epochDoc(i int) string {
	switch i % 3 {
	case 0:
		return `<site><people>` +
			strings.Repeat(`<person><name/><address><city/><zip/></address></person>`, 4) +
			`</people></site>`
	case 1:
		return `<site><people><person><name/><phone/></person></people><items>` +
			strings.Repeat(`<item><name/><price/></item>`, 3) +
			`</items></site>`
	default:
		return `<site><items><item><name/><desc><par/></desc></item></items></site>`
	}
}

func epochTrees(t *testing.T, dict *labeltree.Dict, lo, hi int) []*labeltree.Tree {
	t.Helper()
	var out []*labeltree.Tree
	for i := lo; i < hi; i++ {
		tr, err := xmlparse.Parse(strings.NewReader(epochDoc(i)), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func epochQueries(t *testing.T, s *Summary) []labeltree.Pattern {
	t.Helper()
	var out []labeltree.Pattern
	for _, qs := range []string{
		"person(name)",
		"person(name,address(city))",
		"item(name,price)",
		"item(desc(par))",
		"site(people(person(name)))",
	} {
		q, err := s.ParseQuery(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		out = append(out, q)
	}
	return out
}

// mineDelta folds each tree's single-document counts into a fresh delta.
func mineDelta(t *testing.T, k int, dict *labeltree.Dict, trees []*labeltree.Tree) *lattice.Delta {
	t.Helper()
	d := lattice.NewDelta(k, dict)
	for _, tr := range trees {
		inc, err := BuildForestContext(context.Background(), []*labeltree.Tree{tr}, BuildOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		var aerr error
		if d, aerr = d.Apply(inc.Lattice()); aerr != nil {
			t.Fatal(aerr)
		}
	}
	return d
}

func epochNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("doc-%03d", i)
	}
	return out
}

// TestEpochDifferentialIdentity is the acceptance check: an epoch
// serving (base + delta) answers every registered estimator
// bit-identically to a from-scratch rebuild over the union forest, for
// map, frozen, and compressed base backends. Counts are additive across
// documents, so the merged store is pointwise equal to the rebuilt one
// and every estimator — a deterministic function of the store and the
// (identically ordered) document source — must agree exactly.
func TestEpochDifferentialIdentity(t *testing.T) {
	const k = 3
	ctx := context.Background()
	dict := labeltree.NewDict()
	all := epochTrees(t, dict, 0, 6)
	baseTrees, deltaTrees := all[:4], all[4:]

	rebuilt, err := BuildForestContext(ctx, all, BuildOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	queries := epochQueries(t, rebuilt)
	delta := mineDelta(t, k, dict, deltaTrees)

	for _, backend := range []string{"map", "frozen", "compressed"} {
		t.Run(backend, func(t *testing.T) {
			base, err := BuildForestContext(ctx, baseTrees, BuildOptions{K: k})
			if err != nil {
				t.Fatal(err)
			}
			switch backend {
			case "frozen":
				base = base.Freeze()
			case "compressed":
				base = base.Compress()
			}
			handle := &EpochHandle{}
			ep := handle.Publish(base, delta, all, epochNames(len(all)))
			if ep.Summary.StoreKind() != "delta" {
				t.Fatalf("epoch store kind = %q", ep.Summary.StoreKind())
			}
			for _, m := range RegisteredMethods() {
				for qi, q := range queries {
					got, gerr := ep.Summary.EstimateContext(ctx, q, m)
					want, werr := rebuilt.EstimateContext(ctx, q, m)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s q%d: error mismatch: %v vs %v", m, qi, gerr, werr)
					}
					if gerr == nil && got != want {
						t.Fatalf("%s q%d: epoch %v != rebuilt %v", m, qi, got, want)
					}
				}
				gotB, gerr := ep.Summary.EstimateBatchContext(ctx, queries, m, BatchOptions{})
				wantB, werr := rebuilt.EstimateBatchContext(ctx, queries, m, BatchOptions{})
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s batch: error mismatch: %v vs %v", m, gerr, werr)
				}
				for i := range gotB {
					if (gotB[i].Err == nil) != (wantB[i].Err == nil) {
						t.Fatalf("%s batch[%d]: error mismatch: %v vs %v", m, i, gotB[i].Err, wantB[i].Err)
					}
					if gotB[i].Err == nil && gotB[i].Estimate != wantB[i].Estimate {
						t.Fatalf("%s batch[%d]: %v != %v", m, i, gotB[i].Estimate, wantB[i].Estimate)
					}
				}
			}
		})
	}
}

// TestEpochSwapStress is the torn-read check: readers hammer
// EstimateContext and EstimateBatchContext while a writer publishes
// 1000 epoch swaps alternating between two states, and every answer
// must be bit-identical to one state or the other — and within a batch,
// consistently from ONE state, since a reader pins the epoch it loaded.
// Run under -race this also proves the swap path is data-race free.
func TestEpochSwapStress(t *testing.T) {
	const k = 3
	const swaps = 1000
	ctx := context.Background()
	dict := labeltree.NewDict()
	all := epochTrees(t, dict, 0, 6)
	baseTrees, deltaTrees := all[:4], all[4:]
	names := epochNames(len(all))

	base, err := BuildForestContext(ctx, baseTrees, BuildOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	base = base.Freeze()
	queries := epochQueries(t, base)
	deltaB := mineDelta(t, k, dict, deltaTrees)
	deltaA := lattice.NewDelta(k, dict)

	// Precompute the two legal answer vectors.
	answers := func(d *lattice.Delta, docs []*labeltree.Tree, ns []string) []float64 {
		h := &EpochHandle{}
		ep := h.Publish(base, d, docs, ns)
		out := make([]float64, len(queries))
		for i, q := range queries {
			v, err := ep.Summary.EstimateContext(ctx, q, MethodRecursive)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = v
		}
		return out
	}
	ansA := answers(deltaA, baseTrees, names[:len(baseTrees)])
	ansB := answers(deltaB, all, names)
	differs := false
	for i := range ansA {
		if ansA[i] != ansB[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("test is vacuous: both states answer identically")
	}

	handle := &EpochHandle{}
	handle.Publish(base, deltaA, baseTrees, names[:len(baseTrees)])
	done := make(chan struct{})
	var readerIters atomic.Int64

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				readerIters.Add(1)
				ep := handle.Current()
				if iter%4 == 0 {
					// Batch path: all answers must come from ep's state.
					res, err := ep.Summary.EstimateBatchContext(ctx, queries, MethodRecursive, BatchOptions{Workers: 1})
					if err != nil {
						report("reader %d: batch: %v", r, err)
						return
					}
					var want []float64
					switch res[0].Estimate {
					case ansA[0]:
						want = ansA
					case ansB[0]:
						want = ansB
					default:
						report("reader %d: batch[0] = %v, not in {%v, %v}", r, res[0].Estimate, ansA[0], ansB[0])
						return
					}
					for i := range res {
						if res[i].Err != nil {
							report("reader %d: batch[%d]: %v", r, i, res[i].Err)
							return
						}
						if res[i].Estimate != want[i] {
							report("reader %d: torn batch: [%d] = %v, want %v", r, i, res[i].Estimate, want[i])
							return
						}
					}
					continue
				}
				qi := iter % len(queries)
				v, err := ep.Summary.EstimateContext(ctx, queries[qi], MethodRecursive)
				if err != nil {
					report("reader %d: estimate: %v", r, err)
					return
				}
				if v != ansA[qi] && v != ansB[qi] {
					report("reader %d: q%d = %v, not in {%v, %v}", r, qi, v, ansA[qi], ansB[qi])
					return
				}
			}
		}(r)
	}

	// Pace the swaps against actual reader progress (not Gosched, which
	// can stall for a scheduler timeslice per call under spinning
	// readers): every 50 swaps, wait until readers collectively complete
	// a few more iterations, so reads genuinely interleave with swaps.
	for i := 0; i < swaps; i++ {
		if i%2 == 0 {
			handle.Publish(base, deltaB, all, names)
		} else {
			handle.Publish(base, deltaA, baseTrees, names[:len(baseTrees)])
		}
		if i%50 == 0 {
			target := readerIters.Load() + 8
			for readerIters.Load() < target {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := handle.Current().ID; got != uint64(swaps)+1 {
		t.Fatalf("epoch ID = %d, want %d (1 initial + %d swaps)", got, swaps+1, swaps)
	}
}

// TestSubCacheInvalidatedOnMutation: cached answers must not survive a
// change to the counts. Summaries never mutate; a change publishes a
// new epoch, whose summary starts with empty caches.
func TestSubCacheInvalidatedOnMutation(t *testing.T) {
	sum, _, dict := buildSample(t, 2) // K=2 forces decomposition early
	base := sum.Freeze()
	handle := &EpochHandle{}
	ep := handle.Publish(base, nil, nil, nil)
	q, err := ep.Summary.ParseQuery("computer(laptops(laptop(brand,price)))")
	if err != nil {
		t.Fatal(err)
	}
	before, err := ep.Summary.Estimate(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Summary.CacheStats().Entries == 0 {
		t.Fatal("no answer cached")
	}
	extra, err := xmlparse.Parse(strings.NewReader("<computer><laptops><laptop><brand/><price/></laptop></laptops></computer>"), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := handle.Publish(base, mineDelta(t, 2, dict, []*labeltree.Tree{extra}), nil, nil)
	if got := next.Summary.CacheStats().Entries; got != 0 {
		t.Fatalf("%d cached answers carried into the next epoch", got)
	}
	after, err := next.Summary.Estimate(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("estimate unchanged after adding a matching document (stale cache?)")
	}
}

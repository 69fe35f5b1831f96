// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index), plus ablations of the
// design choices: voting, lattice level K, the hash-vs-trie summary
// store (the trie lives in trie_test.go), the product counter, and
// δ-derivable pruning.
//
// Accuracy experiments report their headline numbers via b.ReportMetric
// (err%/… columns); time experiments are ordinary Go benchmarks. The
// dataset scale defaults to a laptop-friendly size; set TWIG_BENCH_SCALE
// to enlarge. cmd/twigbench prints the full paper-style report.
package treelattice_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/datagen"
	"treelattice/internal/estimate"
	"treelattice/internal/experiments"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/mine"
	"treelattice/internal/online"
	"treelattice/internal/planner"
	"treelattice/internal/treesketch"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
)

func benchScale() int {
	if v := os.Getenv("TWIG_BENCH_SCALE"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 4000
}

func benchConfig() experiments.Config {
	return experiments.Config{
		Scale:        benchScale(),
		Seed:         42,
		K:            4,
		Sizes:        []int{4, 5, 6, 7, 8},
		PerSize:      20,
		SketchBudget: 12 << 10, // proportional to the reduced scale
	}
}

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite = experiments.NewSuite(benchConfig())
	})
	return suite
}

func benchEnv(b *testing.B, p datagen.Profile) *experiments.Env {
	b.Helper()
	e, err := benchSuite(b).Env(p)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// ---- Table 1: dataset characteristics ----

func BenchmarkTable1DatasetGeneration(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dict := labeltree.NewDict()
				if _, err := datagen.Generate(datagen.Config{Profile: p, Scale: benchScale(), Seed: 42}, dict); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table 2: patterns per level (mining to level 5) ----

func BenchmarkTable2PatternsPerLevel(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			e := benchEnv(b, p)
			var last []int
			for i := 0; i < b.N; i++ {
				sizes, err := mine.CountPerLevel(e.Tree, 5, mine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = sizes
			}
			for l := 1; l <= 5; l++ {
				b.ReportMetric(float64(last[l]), fmt.Sprintf("L%d-patterns", l))
			}
		})
	}
}

// ---- Table 3: summary construction time and size ----

func BenchmarkTable3LatticeConstruction(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			e := benchEnv(b, p)
			var kb float64
			for i := 0; i < b.N; i++ {
				sum, err := core.Build(e.Tree, core.BuildOptions{K: 4})
				if err != nil {
					b.Fatal(err)
				}
				kb = float64(sum.SizeBytes()) / 1024
			}
			b.ReportMetric(kb, "summaryKB")
		})
	}
}

// BenchmarkCorpusBuildWorkers measures the parallel corpus-build pipeline
// (per-document fan-out plus per-level candidate counting) against the
// sequential baseline on a many-document forest. The Workers=NumCPU run
// should show the speedup that motivates the pipeline; results are
// bit-identical either way (see TestBuildForestEquivalence).
func BenchmarkCorpusBuildWorkers(b *testing.B) {
	makeForest := func() []*labeltree.Tree {
		dict := labeltree.NewDict()
		trees := make([]*labeltree.Tree, 0, 8)
		for i, p := range []datagen.Profile{datagen.XMark, datagen.NASA, datagen.IMDB, datagen.PSD} {
			for j := 0; j < 2; j++ {
				tr, err := datagen.Generate(datagen.Config{Profile: p, Scale: benchScale() / 2, Seed: int64(42 + 10*i + j)}, dict)
				if err != nil {
					b.Fatal(err)
				}
				trees = append(trees, tr)
			}
		}
		return trees
	}
	forest := makeForest()
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildForestContext(context.Background(), forest, core.BuildOptions{K: 4, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable3SketchConstruction(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			e := benchEnv(b, p)
			var kb float64
			for i := 0; i < b.N; i++ {
				syn := treesketch.Build(e.Tree, treesketch.Options{BudgetBytes: benchConfig().SketchBudget})
				kb = float64(syn.SizeBytes()) / 1024
			}
			b.ReportMetric(kb, "summaryKB")
		})
	}
}

// ---- Figures 7 and 8: estimation accuracy ----

func BenchmarkFigure7AccuracyByQuerySize(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			s := benchSuite(b)
			benchEnv(b, p) // force construction outside the timer-reported loop
			var rows []experiments.Figure7Row
			for i := 0; i < b.N; i++ {
				all, err := s.Figure7()
				if err != nil {
					b.Fatal(err)
				}
				rows = all
			}
			for _, r := range rows {
				if r.Dataset == p && r.Size == 8 {
					b.ReportMetric(r.AvgErrPct, r.Estimator+"-err%")
				}
			}
		})
	}
}

func BenchmarkFigure8ErrorCDF(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Figure8Row
	for i := 0; i < b.N; i++ {
		all, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		rows = all
	}
	for _, r := range rows {
		if r.Dataset == datagen.XMark {
			// Fraction of queries within 100% error: the mid-curve point
			// the paper's Figure 8 plots.
			for _, pt := range r.Points {
				if pt.Threshold > 99 && pt.Threshold < 101 {
					b.ReportMetric(pt.CumPercent, r.Estimator+"-pct<=100%")
				}
			}
		}
	}
}

// ---- Figure 9: estimation response time ----

// BenchmarkFigure9ResponseTime times one estimate per iteration over
// the XMark positive workload of each size, cycling its queries.
//
// The lattice methods run on each store backend in two states, one row
// per backend/state/method/size: cold rows share no cache across
// estimates (each starts from an empty per-query memo), and warm rows
// give the row its own SubCache, filled by one pass over the row's
// queries before the timer starts. On the frozen store a third state,
// fresh, gives every estimate a new SubCache, as the first read on a
// newly published epoch gets one: it prices filling an empty cache. The document-backed methods run once
// per size: treesketches on the suite's synopsis; markov, sampling and
// ensemble through Summary.EstimateStrict with Prepare paid before the
// timer, so the ensemble's recursive+voting half uses the summary's
// shared cache as it does when serving. An estimate that exhausts its
// budget is counted in exhausted/op instead of failing the benchmark.
func BenchmarkFigure9ResponseTime(b *testing.B) {
	e := benchEnv(b, datagen.XMark)
	lat := e.Summary.Lattice()
	sizes := []int{4, 6, 8}
	stores := []struct {
		name string
		st   estimate.Store
	}{
		{"map", lat},
		{"frozen", lattice.Freeze(lat)},
		{"compressed", lattice.Compress(lat)},
	}
	newEstimator := func(method core.Method, st estimate.Store, c *estimate.SubCache) estimate.Estimator {
		if method == core.MethodFixSized {
			return &estimate.FixSized{Sum: st, Cache: c}
		}
		return &estimate.Recursive{Sum: st, Voting: method == core.MethodRecursiveVoting, Cache: c}
	}
	for _, store := range stores {
		for _, state := range []string{"cold", "warm", "fresh"} {
			if state == "fresh" && store.name != "frozen" {
				continue
			}
			for _, m := range core.Methods() {
				for _, size := range sizes {
					qs := e.Positive[size]
					if len(qs) == 0 {
						continue
					}
					b.Run(fmt.Sprintf("%s/%s/%s/size%d", store.name, state, m, size), func(b *testing.B) {
						var cache *estimate.SubCache
						if state == "warm" {
							cache = estimate.NewSubCache(0)
						}
						est := newEstimator(m, store.st, cache)
						if state == "warm" {
							for _, q := range qs {
								est.Estimate(q.Pattern)
							}
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if state == "fresh" {
								est = newEstimator(m, store.st, estimate.NewSubCache(0))
							}
							est.Estimate(qs[i%len(qs)].Pattern)
						}
					})
				}
			}
		}
	}

	for _, size := range sizes {
		qs := e.Positive[size]
		if len(qs) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("treesketches/size%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Sketch.Estimate(qs[i%len(qs)].Pattern)
			}
		})
	}
	ctx := context.Background()
	for _, m := range []core.Method{core.MethodMarkov, core.MethodSampling, core.MethodEnsemble} {
		for _, size := range sizes {
			qs := e.Positive[size]
			if len(qs) == 0 {
				continue
			}
			b.Run(fmt.Sprintf("%s/size%d", m, size), func(b *testing.B) {
				// exhausts estimates q and reports whether it ran out of budget.
				exhausts := func(q labeltree.Pattern) bool {
					_, err := e.Summary.EstimateStrict(ctx, q, m)
					if err != nil && !errors.Is(err, core.ErrBudgetExhausted) {
						b.Fatal(err)
					}
					return err != nil
				}
				exhausts(qs[0].Pattern) // pays Prepare
				exhausted := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if exhausts(qs[i%len(qs)].Pattern) {
						exhausted++
					}
				}
				b.ReportMetric(float64(exhausted)/float64(b.N), "exhausted/op")
			})
		}
	}
}

// BenchmarkStoreLookup compares point lookups across the three store
// backends per dataset over the same keys: the map-backed summary, the
// frozen open-addressing store, and the compressed front-coded store.
// The immutable stores also report their resident footprint, and the
// compressed rows the frozen/compressed ratio — the space×time trade
// the compressed backend exists for. Both immutable stores must do zero
// allocations per lookup.
func BenchmarkStoreLookup(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			e := benchEnv(b, p)
			lat := e.Summary.Lattice()
			frozen := lattice.Freeze(lat)
			comp := lattice.Compress(lat)
			keys := make([]labeltree.Key, 0, lat.Len())
			for _, entry := range lat.Entries(0) {
				keys = append(keys, entry.Pattern.Key())
			}
			lookup := func(b *testing.B, st estimate.Store) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := st.CountKey(keys[i%len(keys)]); !ok {
						b.Fatal("miss")
					}
				}
			}
			b.Run("map", func(b *testing.B) { lookup(b, lat) })
			b.Run("frozen", func(b *testing.B) {
				lookup(b, frozen)
				b.ReportMetric(float64(frozen.ResidentBytes()), "resident-bytes")
			})
			b.Run("compressed", func(b *testing.B) {
				lookup(b, comp)
				b.ReportMetric(float64(comp.ResidentBytes()), "resident-bytes")
				b.ReportMetric(float64(frozen.ResidentBytes())/float64(comp.ResidentBytes()), "compression-ratio")
			})
		})
	}
}

// ---- Figure 10: δ-derivable pruning ----

func BenchmarkFigure10aZeroDerivablePruning(b *testing.B) {
	for _, p := range datagen.AllProfiles() {
		b.Run(string(p), func(b *testing.B) {
			e := benchEnv(b, p)
			var saved float64
			for i := 0; i < b.N; i++ {
				pruned := e.Summary.Prune(0)
				saved = 100 * (1 - float64(pruned.SizeBytes())/float64(e.Summary.SizeBytes()))
			}
			b.ReportMetric(saved, "saving%")
		})
	}
}

func BenchmarkFigure10bOptSummary(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.Figure10bRow
	for i := 0; i < b.N; i++ {
		r, _, _, err := s.Figure10b()
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		if r.Size == 8 {
			b.ReportMetric(r.VotingPct, "voting-err%")
			b.ReportMetric(r.VotingOptPct, "votingOPT-err%")
		}
	}
}

func BenchmarkFigure10cdDeltaPruning(b *testing.B) {
	s := benchSuite(b)
	var cRows []experiments.Figure10cRow
	for i := 0; i < b.N; i++ {
		c, _, err := s.Figure10cd(datagen.IMDB)
		if err != nil {
			b.Fatal(err)
		}
		cRows = c
	}
	for _, r := range cRows {
		b.ReportMetric(r.SizeKB, fmt.Sprintf("delta%d-KB", r.DeltaPct))
	}
}

// ---- Figure 11: worked example ----

func BenchmarkFigure11WorkedExample(b *testing.B) {
	var r experiments.Figure11Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Figure11()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.TreeLattice, "treelattice")
	b.ReportMetric(r.Sketch, "treesketches")
	b.ReportMetric(float64(r.TrueCount), "true")
}

// ---- Negative workloads ----

func BenchmarkNegativeWorkloads(b *testing.B) {
	s := benchSuite(b)
	var rows []experiments.NegativeRow
	for i := 0; i < b.N; i++ {
		r, err := s.Negative()
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		if r.Dataset == datagen.NASA {
			b.ReportMetric(r.ZeroPct, r.Estimator+"-zero%")
		}
	}
}

// ---- Ablations ----

// BenchmarkAblationVoting isolates the cost of the voting extension per
// query size (the Figure 9 "voting degrades with size" observation).
func BenchmarkAblationVoting(b *testing.B) {
	e := benchEnv(b, datagen.NASA)
	lat := e.Summary.Lattice()
	for _, voting := range []bool{false, true} {
		est := estimate.NewRecursive(lat, voting)
		for _, size := range []int{5, 7} {
			qs := e.Positive[size]
			if len(qs) == 0 {
				continue
			}
			b.Run(fmt.Sprintf("voting=%v/size%d", voting, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					est.Estimate(qs[i%len(qs)].Pattern)
				}
			})
		}
	}
}

// BenchmarkAblationLatticeK sweeps the lattice level: construction cost
// and size grow with K while estimation error falls.
func BenchmarkAblationLatticeK(b *testing.B) {
	e := benchEnv(b, datagen.PSD)
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var kb float64
			for i := 0; i < b.N; i++ {
				sum, err := core.Build(e.Tree, core.BuildOptions{K: k})
				if err != nil {
					b.Fatal(err)
				}
				kb = float64(sum.SizeBytes()) / 1024
			}
			b.ReportMetric(kb, "summaryKB")
		})
	}
}

// BenchmarkAblationStore compares the hash-table summary store against
// the prefix-trie alternative the paper rejected (Section 4.2).
func BenchmarkAblationStore(b *testing.B) {
	e := benchEnv(b, datagen.NASA)
	lat := e.Summary.Lattice()
	trie := trieFromSummary(lat)
	keys := make([]labeltree.Key, 0, lat.Len())
	for _, entry := range lat.Entries(0) {
		keys = append(keys, entry.Pattern.Key())
	}
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := lat.CountKey(keys[i%len(keys)]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := trie.Get(keys[i%len(keys)]); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkAblationMatcher compares the product counter with counting
// by enumeration on one random child-axis pattern over a small tree:
// mining counts every candidate pattern, so the counter is the build hot
// path.
func BenchmarkAblationMatcher(b *testing.B) {
	dict, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(9))
	tr := treetest.RandomTree(rng, 400, alphabet, dict)
	q := twigjoin.MustQuery(treetest.RandomPattern(rng, 4, alphabet), nil)
	benchCountVsEnumerate(b, twigjoin.NewIndex(tr), q)
}

// benchCountVsEnumerate checks that the counter and enumeration agree on
// q, then times each.
func benchCountVsEnumerate(b *testing.B, x *twigjoin.Index, q twigjoin.Query) {
	all := func(twigjoin.Match) bool { return true }
	want := twigjoin.Count(x, q)
	if got := twigjoin.Enumerate(x, q, nil, all).Matches; got != want {
		b.Fatalf("enumeration counts %d, counter %d", got, want)
	}
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			twigjoin.Count(x, q)
		}
	})
	b.Run("enumerate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			twigjoin.Enumerate(x, q, nil, all)
		}
	})
}

// BenchmarkAblationDelta measures estimation cost against summaries
// pruned at increasing δ: smaller summaries force more reconstruction
// work per query.
func BenchmarkAblationDelta(b *testing.B) {
	e := benchEnv(b, datagen.IMDB)
	qs := e.Positive[6]
	if len(qs) == 0 {
		b.Skip("no size-6 queries")
	}
	for _, delta := range []float64{0, 0.1, 0.3} {
		pruned := e.Summary.Prune(delta)
		est := estimate.NewRecursive(pruned.Lattice(), true)
		b.Run(fmt.Sprintf("delta=%v", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				est.Estimate(qs[i%len(qs)].Pattern)
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures positive workload sampling.
func BenchmarkWorkloadGeneration(b *testing.B) {
	e := benchEnv(b, datagen.NASA)
	for i := 0; i < b.N; i++ {
		if _, err := workload.Positive(e.Tree, workload.Options{Sizes: []int{6}, PerSize: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVotingScheme compares the paper's mean voting with the
// robust median and trimmed-mean alternatives it leaves open, reporting
// accuracy on the IMDB workload (where decomposition error is largest).
func BenchmarkAblationVotingScheme(b *testing.B) {
	e := benchEnv(b, datagen.IMDB)
	lat := e.Summary.Lattice()
	for _, scheme := range []estimate.VotingScheme{estimate.Mean, estimate.Median, estimate.TrimmedMean} {
		est := &estimate.Recursive{Sum: lat, Voting: true, Scheme: scheme}
		b.Run(scheme.String(), func(b *testing.B) {
			var sumErr float64
			n := 0
			for i := 0; i < b.N; i++ {
				sumErr, n = 0, 0
				for _, size := range []int{5, 6, 7} {
					for _, q := range e.Positive[size] {
						truth := float64(q.TrueCount)
						got := est.Estimate(q.Pattern)
						if truth > 0 {
							sumErr += abs(got-truth) / truth
							n++
						}
					}
				}
			}
			if n > 0 {
				b.ReportMetric(100*sumErr/float64(n), "avg-err%")
			}
		})
	}
}

// BenchmarkTwigJoinExecution counts matches on the XMark document with
// the counter and by enumeration, per axis flavor.
func BenchmarkTwigJoinExecution(b *testing.B) {
	e := benchEnv(b, datagen.XMark)
	x := twigjoin.NewIndex(e.Tree)
	for _, tc := range []struct{ name, q string }{
		{"child", "//open_auction(bidder(date),itemref)"},
		{"descendant", "//item(//keyword,//mail)"},
		{"path", "//site(open_auctions(open_auction(bidder(increase))))"},
	} {
		q := twigjoin.MustParseQuery(tc.q, e.Dict)
		b.Run(tc.name, func(b *testing.B) { benchCountVsEnumerate(b, x, q) })
	}
}

// BenchmarkPlannerVsNaive measures scanned candidates for planned versus
// naive bind orders.
func BenchmarkPlannerVsNaive(b *testing.B) {
	e := benchEnv(b, datagen.XMark)
	x := twigjoin.NewIndex(e.Tree)
	est := estimate.NewRecursive(e.Summary.Lattice(), true)
	// Written expanding-branch-first so the naive order is the bad one.
	q := twigjoin.MustParseQuery("//open_auction(bidder(date,increase),itemref,current)", e.Dict)
	plan := planner.Choose(q, est)
	naive := planner.Plan{Order: planner.NaiveOrder(q)}
	var planned, naiveScan int64
	b.Run("planned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, st := planner.Execute(x, q, plan)
			planned = st.Candidates
		}
		b.ReportMetric(float64(planned), "candidates")
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, st := planner.Execute(x, q, naive)
			naiveScan = st.Candidates
		}
		b.ReportMetric(float64(naiveScan), "candidates")
	})
}

// BenchmarkOnlineTuner measures feedback-adapted estimation.
func BenchmarkOnlineTuner(b *testing.B) {
	e := benchEnv(b, datagen.IMDB)
	tuner := online.NewTuner(e.Summary.Lattice(), 4096)
	qs := e.Positive[6]
	if len(qs) == 0 {
		b.Skip("no workload")
	}
	for _, q := range qs {
		tuner.Feedback(q.Pattern, q.TrueCount)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner.Estimate(qs[i%len(qs)].Pattern)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

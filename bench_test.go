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
	"bytes"
	"context"
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
	"treelattice/internal/xmlparse"
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
// The three decomposition methods run cold on each store backend, one
// row per backend/method/size: the bare estimator, each estimate
// starting from an empty per-query memo as a first-time query does.
// Warm rows time the two recursive methods through a summary's method
// table on the same backend, after one pass over the row's queries has
// filled the summary's answer cache: the price of a repeat. Fix-sized
// keeps no answer cache, so it has no warm row. The document-backed
// methods run once per size: treesketches on the suite's synopsis,
// markov through Summary.EstimateStrict with Prepare paid before the
// timer.
func BenchmarkFigure9ResponseTime(b *testing.B) {
	e := benchEnv(b, datagen.XMark)
	lat := e.Summary.Lattice()
	sizes := []int{4, 6, 8}
	stores := []struct {
		name string
		sum  *core.Summary
		st   estimate.Store
	}{
		{"map", e.Summary, lat},
		{"frozen", e.Summary.Freeze(), lattice.Freeze(lat)},
		{"compressed", e.Summary.Compress(), lattice.Compress(lat)},
	}
	ctx := context.Background()
	for _, store := range stores {
		for _, m := range core.Methods() {
			var est estimate.Estimator = &estimate.Recursive{Sum: store.st, Voting: m == core.MethodRecursiveVoting}
			if m == core.MethodFixSized {
				est = &estimate.FixSized{Sum: store.st}
			}
			for _, size := range sizes {
				qs := e.Positive[size]
				if len(qs) == 0 {
					continue
				}
				b.Run(fmt.Sprintf("%s/cold/%s/size%d", store.name, m, size), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						est.Estimate(qs[i%len(qs)].Pattern)
					}
				})
			}
		}
		for _, m := range []core.Method{core.MethodRecursive, core.MethodRecursiveVoting} {
			for _, size := range sizes {
				qs := e.Positive[size]
				if len(qs) == 0 {
					continue
				}
				b.Run(fmt.Sprintf("%s/warm/%s/size%d", store.name, m, size), func(b *testing.B) {
					for _, q := range qs {
						if _, err := store.sum.EstimateContext(ctx, q.Pattern, m); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						store.sum.EstimateContext(ctx, qs[i%len(qs)].Pattern, m)
					}
				})
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
	for _, size := range sizes {
		qs := e.Positive[size]
		if len(qs) == 0 {
			continue
		}
		b.Run(fmt.Sprintf("%s/size%d", core.MethodMarkov, size), func(b *testing.B) {
			if _, err := e.Summary.EstimateStrict(ctx, qs[0].Pattern, core.MethodMarkov); err != nil { // pays Prepare
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Summary.EstimateStrict(ctx, qs[i%len(qs)].Pattern, core.MethodMarkov)
			}
		})
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

// treeSink and indexSink keep BenchmarkTwigJoinExecution's loads and
// index builds observable.
var (
	treeSink  *labeltree.Tree
	indexSink *twigjoin.Index
)

// BenchmarkTwigJoinExecution loads the XMark document from its stored
// form and builds its region index, which a corpus pays once per
// document at open (the miner builds only the index, once per mined
// document), then counts matches on the index with the counter and by
// enumeration, per axis flavor. The generator does not number XMark's
// nodes in preorder, and a stored tree keeps its numbering, so the
// load-preorder and index-preorder rows repeat the first two on the
// document parsed back from its XML: the preorder-numbered form every
// served document has.
func BenchmarkTwigJoinExecution(b *testing.B) {
	e := benchEnv(b, datagen.XMark)
	parsed := parsedCopy(b, e.Tree, e.Dict)
	for _, tc := range []struct {
		suffix string
		tree   *labeltree.Tree
	}{{"", e.Tree}, {"-preorder", parsed}} {
		var stored bytes.Buffer
		if _, err := labeltree.WriteTree(&stored, tc.tree); err != nil {
			b.Fatal(err)
		}
		b.Run("load"+tc.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := labeltree.ReadTree(bytes.NewReader(stored.Bytes()), e.Dict)
				if err != nil {
					b.Fatal(err)
				}
				treeSink = t
			}
		})
		b.Run("index"+tc.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				indexSink = twigjoin.NewIndex(tc.tree)
			}
		})
	}
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

// parsedCopy returns t written as XML and parsed back into dict: the
// form a corpus serves, numbered in preorder.
func parsedCopy(b *testing.B, t *labeltree.Tree, dict *labeltree.Dict) *labeltree.Tree {
	b.Helper()
	var x bytes.Buffer
	if err := xmlparse.Write(&x, t); err != nil {
		b.Fatal(err)
	}
	p, err := xmlparse.Parse(&x, dict, xmlparse.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkExecuteQuery times served twig execution below HTTP:
// Summary.ExecuteQueryContext over 48 documents of about 1,000 elements,
// cycling the four profiles and parsed from XML as a corpus serves them,
// one query of a fixed set per operation. The count row sends count-only
// requests, which count in stored order with no plan; the limit=5 row
// plans with the default method, counts, and materializes up to five
// tuples. Both count in one pass with min(GOMAXPROCS, 48) workers.
func BenchmarkExecuteQuery(b *testing.B) {
	dict := labeltree.NewDict()
	trees := make([]*labeltree.Tree, 48)
	for i := range trees {
		t, err := datagen.Generate(datagen.Config{Profile: datagen.AllProfiles()[i%4], Scale: 1000, Seed: int64(i + 1)}, dict)
		if err != nil {
			b.Fatal(err)
		}
		trees[i] = parsedCopy(b, t, dict)
	}
	ctx := context.Background()
	sum, err := core.BuildForestContext(ctx, trees, core.BuildOptions{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	var qs []twigjoin.Query
	for _, src := range []string{
		"//dataset(//keyword,//author(lastname,initial))",
		"//reference(source(journal(name)),date(year))",
		"//movie(title,//actor(name),//genre)",
		"//ProteinEntry(//author,//feature(location(begin,end)))",
		"//open_auction(bidder(date),itemref)",
		"//item(//keyword,//mail(from,date))",
	} {
		q, err := sum.ParseTwigQuery(src)
		if err != nil {
			b.Fatal(err)
		}
		// Build the documents' indexes and check the query matches.
		if res, err := sum.ExecuteQueryContext(ctx, q, core.QueryOptions{}); err != nil || res.Count == 0 {
			b.Fatalf("%s: count %v (%v); pick a query that occurs", src, res, err)
		}
		qs = append(qs, q)
	}
	for _, limit := range []int{0, 5} {
		name := "count"
		if limit > 0 {
			name = fmt.Sprintf("limit=%d", limit)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sum.ExecuteQueryContext(ctx, qs[i%len(qs)], core.QueryOptions{Limit: limit}); err != nil {
					b.Fatal(err)
				}
			}
		})
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

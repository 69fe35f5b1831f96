package experiments

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/datagen"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/metrics"
	"treelattice/internal/treesketch"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
	"treelattice/internal/xmlparse"
)

// EstimatorNames lists the four estimators of Figures 7–9 in presentation
// order.
var EstimatorNames = []string{"recursive", "recursive+voting", "fix-sized", "treesketches"}

// estimators returns the four named estimation functions for an Env.
func (e *Env) estimators() map[string]func(labeltree.Pattern) float64 {
	lat := e.Summary.Lattice()
	rec := estimate.NewRecursive(lat, false)
	vote := estimate.NewRecursive(lat, true)
	fix := estimate.NewFixSized(lat)
	return map[string]func(labeltree.Pattern) float64{
		"recursive":        rec.Estimate,
		"recursive+voting": vote.Estimate,
		"fix-sized":        fix.Estimate,
		"treesketches":     e.Sketch.Estimate,
	}
}

// sanity returns the error-metric sanity bound for the dataset's pooled
// positive workload (Section 5.1).
func (e *Env) sanity() float64 {
	var counts []int64
	for _, qs := range e.Positive {
		for _, q := range qs {
			counts = append(counts, q.TrueCount)
		}
	}
	return metrics.SanityBound(counts)
}

// Figure7Row is one point of Figure 7: the average absolute estimation
// error (percent) for one dataset, query size, and estimator.
type Figure7Row struct {
	Dataset   datagen.Profile
	Size      int
	Estimator string
	AvgErrPct float64
}

// Figure7 evaluates the positive workloads under all four estimators.
func (s *Suite) Figure7() ([]Figure7Row, error) {
	var rows []Figure7Row
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		sanity := e.sanity()
		ests := e.estimators()
		for _, size := range s.Cfg.Sizes {
			for _, name := range EstimatorNames {
				fn := ests[name]
				var errs []float64
				for _, q := range e.Positive[size] {
					est := fn(q.Pattern)
					errs = append(errs, metrics.AbsError(float64(q.TrueCount), est, sanity))
				}
				rows = append(rows, Figure7Row{
					Dataset: p, Size: size, Estimator: name,
					AvgErrPct: 100 * metrics.Mean(errs),
				})
			}
		}
	}
	return rows, nil
}

// Figure8Row is the cumulative error distribution for one dataset and
// estimator over the pooled positive workload (Figure 8).
type Figure8Row struct {
	Dataset   datagen.Profile
	Estimator string
	Points    []metrics.CDFPoint // thresholds in percent
}

// Figure8 computes error CDFs on log-spaced thresholds from 0.1% to
// 10000%, the X axis of the paper's Figure 8.
func (s *Suite) Figure8() ([]Figure8Row, error) {
	thresholds := metrics.LogThresholds(0.1, 10000, 11)
	var rows []Figure8Row
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		sanity := e.sanity()
		for _, name := range EstimatorNames {
			fn := e.estimators()[name]
			var errs []float64
			for _, size := range s.Cfg.Sizes {
				for _, q := range e.Positive[size] {
					errs = append(errs, 100*metrics.AbsError(float64(q.TrueCount), fn(q.Pattern), sanity))
				}
			}
			rows = append(rows, Figure8Row{Dataset: p, Estimator: name, Points: metrics.CDF(errs, thresholds)})
		}
	}
	return rows, nil
}

// Figure9Row is the average estimation response time for one dataset,
// query size, and estimator (Figure 9).
type Figure9Row struct {
	Dataset   datagen.Profile
	Size      int
	Estimator string
	AvgTime   time.Duration
}

// figure9Passes is how many timed passes Figure 9 takes over each cell's
// queries; a cell reports the median pass.
const figure9Passes = 5

// Figure9 measures per-query estimation latency. Per profile it runs
// every (size, estimator) cell's queries once untimed, which fills pooled
// scratch, and collects garbage, so no collection the earlier sections
// started is still marking. Then it takes figure9Passes timed rounds,
// each timing one pass of every cell, and each cell reports its median
// pass: a cell's passes are spread over the whole run, so one slow
// stretch of the host, a GC cycle or a scheduler stall moves at most one
// of them.
func (s *Suite) Figure9() ([]Figure9Row, error) {
	var rows []Figure9Row
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		ests := e.estimators()
		type cell struct {
			fn     func(labeltree.Pattern) float64
			qs     []workload.Query
			passes [figure9Passes]time.Duration
		}
		var cells []cell
		first := len(rows)
		for _, size := range s.Cfg.Sizes {
			if qs := e.Positive[size]; len(qs) > 0 {
				for _, name := range EstimatorNames {
					cells = append(cells, cell{fn: ests[name], qs: qs})
					rows = append(rows, Figure9Row{Dataset: p, Size: size, Estimator: name})
				}
			}
		}
		pass := func(c *cell) time.Duration {
			start := time.Now()
			for _, q := range c.qs {
				c.fn(q.Pattern)
			}
			return time.Since(start)
		}
		for i := range cells {
			pass(&cells[i])
		}
		runtime.GC()
		for round := range figure9Passes {
			for i := range cells {
				cells[i].passes[round] = pass(&cells[i])
			}
		}
		for i := range cells {
			c := &cells[i]
			slices.Sort(c.passes[:])
			rows[first+i].AvgTime = c.passes[figure9Passes/2] / time.Duration(len(c.qs))
		}
	}
	return rows, nil
}

// Figure10aRow compares the 4-lattice size with and without 0-derivable
// patterns (Figure 10a).
type Figure10aRow struct {
	Dataset  datagen.Profile
	FullKB   float64
	PrunedKB float64
}

// Figure10a prunes 0-derivable patterns from each dataset's summary.
func (s *Suite) Figure10a() ([]Figure10aRow, error) {
	var rows []Figure10aRow
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		pruned := e.Summary.Prune(0)
		rows = append(rows, Figure10aRow{
			Dataset:  p,
			FullKB:   float64(e.Summary.SizeBytes()) / 1024,
			PrunedKB: float64(pruned.SizeBytes()) / 1024,
		})
	}
	return rows, nil
}

// Figure10bRow compares, per query size on the first profile (NASA in the
// paper), the voting estimator on the full K-lattice, the voting estimator
// on the OPT summary (0-derivable-pruned (K+1)-lattice occupying
// comparable space), and TreeSketches (Figure 10b).
type Figure10bRow struct {
	Size         int
	VotingPct    float64
	VotingOptPct float64
	SketchPct    float64
}

// Figure10b runs the OPT experiment on the suite's first profile.
func (s *Suite) Figure10b() ([]Figure10bRow, float64, float64, error) {
	e, err := s.Env(s.Cfg.Profiles[0])
	if err != nil {
		return nil, 0, 0, err
	}
	big, err := core.Build(e.Tree, core.BuildOptions{K: s.Cfg.K + 1})
	if err != nil {
		return nil, 0, 0, err
	}
	opt := big.Prune(0)
	sanity := e.sanity()
	vote := estimate.NewRecursive(e.Summary.Lattice(), true)
	voteOpt := estimate.NewRecursive(opt.Lattice(), true)
	var rows []Figure10bRow
	for _, size := range s.Cfg.Sizes {
		var ev, eo, es []float64
		for _, q := range e.Positive[size] {
			truth := float64(q.TrueCount)
			ev = append(ev, metrics.AbsError(truth, vote.Estimate(q.Pattern), sanity))
			eo = append(eo, metrics.AbsError(truth, voteOpt.Estimate(q.Pattern), sanity))
			es = append(es, metrics.AbsError(truth, e.Sketch.Estimate(q.Pattern), sanity))
		}
		rows = append(rows, Figure10bRow{
			Size:         size,
			VotingPct:    100 * metrics.Mean(ev),
			VotingOptPct: 100 * metrics.Mean(eo),
			SketchPct:    100 * metrics.Mean(es),
		})
	}
	fullKB := float64(e.Summary.SizeBytes()) / 1024
	optKB := float64(opt.SizeBytes()) / 1024
	return rows, fullKB, optKB, nil
}

// Figure10cRow reports summary size under δ-derivable pruning for the
// correlation-heavy profile (IMDB in the paper; Figure 10c).
type Figure10cRow struct {
	DeltaPct int
	SizeKB   float64
}

// Figure10dRow reports estimation quality under δ-derivable pruning
// (Figure 10d).
type Figure10dRow struct {
	DeltaPct  int
	Size      int
	AvgErrPct float64
}

// Figure10cd varies δ over {0, 10, 20, 30}% on the given profile and
// reports summary sizes and voting-estimator error per query size.
func (s *Suite) Figure10cd(profile datagen.Profile) ([]Figure10cRow, []Figure10dRow, error) {
	e, err := s.Env(profile)
	if err != nil {
		return nil, nil, err
	}
	sanity := e.sanity()
	var cRows []Figure10cRow
	var dRows []Figure10dRow
	for _, deltaPct := range []int{0, 10, 20, 30} {
		pruned := e.Summary.Prune(float64(deltaPct) / 100)
		cRows = append(cRows, Figure10cRow{DeltaPct: deltaPct, SizeKB: float64(pruned.SizeBytes()) / 1024})
		vote := estimate.NewRecursive(pruned.Lattice(), true)
		for _, size := range s.Cfg.Sizes {
			var errs []float64
			for _, q := range e.Positive[size] {
				errs = append(errs, metrics.AbsError(float64(q.TrueCount), vote.Estimate(q.Pattern), sanity))
			}
			dRows = append(dRows, Figure10dRow{DeltaPct: deltaPct, Size: size, AvgErrPct: 100 * metrics.Mean(errs)})
		}
	}
	return cRows, dRows, nil
}

// Figure11Result is the worked example of Figure 11: the document where
// a coarse TreeSketches synopsis grossly misestimates a small branching
// twig while the 3-lattice answers it exactly.
type Figure11Result struct {
	Query       string
	TrueCount   int64
	TreeLattice float64
	Sketch      float64
}

// Figure11 reproduces the worked example.
func Figure11() (Figure11Result, error) {
	dict := labeltree.NewDict()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 3; i++ {
		sb.WriteString("<b><c/><c/><c/><c/></b>")
	}
	sb.WriteString("<b><c/><c/></b>")
	sb.WriteString("</r>")
	tree, err := xmlparse.Parse(strings.NewReader(sb.String()), dict, xmlparse.Options{})
	if err != nil {
		return Figure11Result{}, err
	}
	sum, err := core.Build(tree, core.BuildOptions{K: 3})
	if err != nil {
		return Figure11Result{}, err
	}
	sketch := treesketch.Build(tree, treesketch.Options{BudgetBytes: 90})
	q := labeltree.MustParsePattern("b(c,c)", dict)
	latEst, err := sum.Estimate(q, core.MethodRecursive)
	if err != nil {
		return Figure11Result{}, err
	}
	return Figure11Result{
		Query:       "b(c,c)",
		TrueCount:   twigjoin.CountPattern(twigjoin.NewIndex(tree), q),
		TreeLattice: latEst,
		Sketch:      sketch.Estimate(q),
	}, nil
}

// NegativeRow reports, per dataset and estimator, the percentage of
// zero-selectivity queries answered exactly 0 (Section 5.1: TreeLattice
// ≳99%, TreeSketches 100%).
type NegativeRow struct {
	Dataset   datagen.Profile
	Estimator string
	ZeroPct   float64
	Queries   int
}

// Negative evaluates the negative workloads.
func (s *Suite) Negative() ([]NegativeRow, error) {
	var rows []NegativeRow
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		ests := e.estimators()
		for _, name := range EstimatorNames {
			fn := ests[name]
			total, zero := 0, 0
			var sizes []int
			for size := range e.Negative {
				sizes = append(sizes, size)
			}
			sort.Ints(sizes)
			for _, size := range sizes {
				for _, q := range e.Negative[size] {
					total++
					if fn(q.Pattern) == 0 {
						zero++
					}
				}
			}
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(zero) / float64(total)
			}
			rows = append(rows, NegativeRow{Dataset: p, Estimator: name, ZeroPct: pct, Queries: total})
		}
	}
	return rows, nil
}

package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"treelattice/internal/core"
)

// RunAll executes every experiment and renders a textual report mirroring
// the paper's tables and figures. It is what cmd/twigbench prints.
func (s *Suite) RunAll(w io.Writer) error {
	fmt.Fprintf(w, "TreeLattice evaluation suite (scale=%d, K=%d, seed=%d, sketch budget=%dKB)\n\n",
		s.Cfg.Scale, s.Cfg.K, s.Cfg.Seed, s.Cfg.SketchBudget>>10)

	if err := s.renderTable1(w); err != nil {
		return err
	}
	if err := s.renderTable2(w); err != nil {
		return err
	}
	if err := s.renderTable3(w); err != nil {
		return err
	}
	if err := s.renderFigure7(w); err != nil {
		return err
	}
	if err := s.renderFigure8(w); err != nil {
		return err
	}
	if err := s.renderFigure9(w); err != nil {
		return err
	}
	if err := s.renderFigure10(w); err != nil {
		return err
	}
	if err := renderFigure11(w); err != nil {
		return err
	}
	if err := s.renderNegative(w); err != nil {
		return err
	}
	if err := s.renderMethods(w); err != nil {
		return err
	}
	return s.renderAdaptation(w)
}

func (s *Suite) renderMethods(w io.Writer) error {
	rows, err := s.Methods()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Estimation methods (beyond the paper): q-error on the positive workload ==")
	fmt.Fprintln(w, "(covered: recursive+voting intervals that contain the true count; caught: of its queries with q-error >= 2, those whose interval has hi >= 2*lo)")
	t := tw(w)
	fmt.Fprintln(t, "dataset\tmethod\tqueries\tmean\tmedian\tp95\tmax\tcovered\tcaught")
	for _, r := range rows {
		covered, caught := "-", "-"
		if r.Method == core.MethodRecursiveVoting {
			covered = fmt.Sprintf("%d/%d", r.Covered, r.Queries)
			caught = fmt.Sprintf("%d/%d", r.Caught, r.Misses)
		}
		fmt.Fprintf(t, "%s\t%s\t%d\t%.2f\t%.2f\t%.2f\t%.2f\t%s\t%s\n",
			r.Dataset, r.Method, r.Queries, r.MeanQError, r.MedianQError,
			r.P95QError, r.MaxQError, covered, caught)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderAdaptation(w io.Writer) error {
	rows, err := s.Adaptation(3)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Online adaptation (beyond the paper): feedback from the workload, error on held-out queries ==")
	fmt.Fprintf(w, "(each pass scores a seed-%d positive workload without the training queries, then feeds back the seed-%d workload's true counts)\n", s.Cfg.Seed+1, s.Cfg.Seed)
	t := tw(w)
	fmt.Fprintln(t, "dataset\tpass\theld-out\tavg err(%)\tcorrections\tused(B)")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%d\t%d\t%.1f\t%d\t%d\n", r.Dataset, r.Pass, r.HeldOut, r.AvgErrPct, r.Corrections, r.UsedBytes)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

func tw(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func (s *Suite) renderTable1(w io.Writer) error {
	rows, err := s.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 1: dataset characteristics ==")
	t := tw(w)
	fmt.Fprintln(t, "dataset\telements\tfile(KB)\tlabels\tdepth")
	for _, r := range rows {
		fmt.Fprintf(t, "%s\t%d\t%d\t%d\t%d\n", r.Dataset, r.Elements, r.FileKB, r.Labels, r.MaxDepth)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderTable2(w io.Writer) error {
	rows, err := s.Table2()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 2: number of subtree patterns per level ==")
	t := tw(w)
	fmt.Fprint(t, "level")
	for _, p := range s.Cfg.Profiles {
		fmt.Fprintf(t, "\t%s", p)
	}
	fmt.Fprintln(t)
	for _, r := range rows {
		fmt.Fprintf(t, "%d", r.Level)
		for _, p := range s.Cfg.Profiles {
			fmt.Fprintf(t, "\t%d", r.Patterns[p])
		}
		fmt.Fprintln(t)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderTable3(w io.Writer) error {
	rows, err := s.Table3()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table 3: summary construction time and memory utilization ==")
	fmt.Fprintf(w, "(lattice time: the median of %d builds per profile, interleaved across profiles; sketch time: one build per profile)\n", table3Builds)
	t := tw(w)
	fmt.Fprintln(t, "dataset\tlattice time\tsketch time\tspeedup\tlattice(KB)\tsketch(KB)")
	for _, r := range rows {
		speedup := float64(r.SketchTime) / float64(r.LatticeTime)
		fmt.Fprintf(t, "%s\t%v\t%v\t%.1fx\t%.1f\t%.1f\n",
			r.Dataset, r.LatticeTime.Round(timeUnit(r.LatticeTime)), r.SketchTime.Round(timeUnit(r.SketchTime)), speedup, r.LatticeKB, r.SketchKB)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderFigure7(w io.Writer) error {
	rows, err := s.Figure7()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 7: average selectivity estimation error (%) by query size ==")
	for _, p := range s.Cfg.Profiles {
		fmt.Fprintf(w, "-- %s --\n", p)
		t := tw(w)
		fmt.Fprint(t, "size")
		for _, n := range EstimatorNames {
			fmt.Fprintf(t, "\t%s", n)
		}
		fmt.Fprintln(t)
		for _, size := range s.Cfg.Sizes {
			fmt.Fprintf(t, "%d", size)
			for _, n := range EstimatorNames {
				for _, r := range rows {
					if r.Dataset == p && r.Size == size && r.Estimator == n {
						fmt.Fprintf(t, "\t%.1f", r.AvgErrPct)
					}
				}
			}
			fmt.Fprintln(t)
		}
		t.Flush()
	}
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderFigure8(w io.Writer) error {
	rows, err := s.Figure8()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 8: cumulative error distribution (% of queries with error <= threshold %) ==")
	for _, p := range s.Cfg.Profiles {
		fmt.Fprintf(w, "-- %s --\n", p)
		t := tw(w)
		fmt.Fprint(t, "estimator")
		var printed bool
		for _, r := range rows {
			if r.Dataset != p {
				continue
			}
			if !printed {
				for _, pt := range r.Points {
					fmt.Fprintf(t, "\t%.4g", pt.Threshold)
				}
				fmt.Fprintln(t)
				printed = true
			}
			fmt.Fprintf(t, "%s", r.Estimator)
			for _, pt := range r.Points {
				fmt.Fprintf(t, "\t%.0f", pt.CumPercent)
			}
			fmt.Fprintln(t)
		}
		t.Flush()
	}
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderFigure9(w io.Writer) error {
	rows, err := s.Figure9()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 9: average response time per query ==")
	for _, p := range s.Cfg.Profiles {
		fmt.Fprintf(w, "-- %s --\n", p)
		t := tw(w)
		fmt.Fprint(t, "size")
		for _, n := range EstimatorNames {
			fmt.Fprintf(t, "\t%s", n)
		}
		fmt.Fprintln(t)
		for _, size := range s.Cfg.Sizes {
			fmt.Fprintf(t, "%d", size)
			for _, n := range EstimatorNames {
				for _, r := range rows {
					if r.Dataset == p && r.Size == size && r.Estimator == n {
						fmt.Fprintf(t, "\t%v", r.AvgTime.Round(timeUnit(r.AvgTime)))
					}
				}
			}
			fmt.Fprintln(t)
		}
		t.Flush()
	}
	fmt.Fprintln(w)
	return nil
}

func (s *Suite) renderFigure10(w io.Writer) error {
	aRows, err := s.Figure10a()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 10a: 4-lattice size with/without 0-derivable patterns (KB) ==")
	t := tw(w)
	fmt.Fprintln(t, "dataset\tfull\tpruned\tsaving")
	for _, r := range aRows {
		saving := 0.0
		if r.FullKB > 0 {
			saving = 100 * (1 - r.PrunedKB/r.FullKB)
		}
		fmt.Fprintf(t, "%s\t%.1f\t%.1f\t%.0f%%\n", r.Dataset, r.FullKB, r.PrunedKB, saving)
	}
	t.Flush()
	fmt.Fprintln(w)

	bRows, fullKB, optKB, err := s.Figure10b()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Figure 10b: avg error (%%) on %s, voting vs voting+OPT (pruned %d-lattice, %.1fKB vs full %d-lattice %.1fKB) vs TreeSketches ==\n",
		s.Cfg.Profiles[0], s.Cfg.K+1, optKB, s.Cfg.K, fullKB)
	t = tw(w)
	fmt.Fprintln(t, "size\tvoting\tvoting+OPT\ttreesketches")
	for _, r := range bRows {
		fmt.Fprintf(t, "%d\t%.1f\t%.1f\t%.1f\n", r.Size, r.VotingPct, r.VotingOptPct, r.SketchPct)
	}
	t.Flush()
	fmt.Fprintln(w)

	imdb := s.Cfg.Profiles[0]
	for _, p := range s.Cfg.Profiles {
		if p == "imdb" {
			imdb = p
		}
	}
	cRows, dRows, err := s.Figure10cd(imdb)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== Figure 10c: summary size under delta-pruning (%s) ==\n", imdb)
	t = tw(w)
	fmt.Fprintln(t, "delta(%)\tsize(KB)")
	for _, r := range cRows {
		fmt.Fprintf(t, "%d\t%.1f\n", r.DeltaPct, r.SizeKB)
	}
	t.Flush()
	fmt.Fprintln(w)

	fmt.Fprintf(w, "== Figure 10d: avg error (%%) under delta-pruning (%s, voting estimator) ==\n", imdb)
	t = tw(w)
	fmt.Fprint(t, "size")
	for _, d := range []int{0, 10, 20, 30} {
		fmt.Fprintf(t, "\tdelta=%d%%", d)
	}
	fmt.Fprintln(t)
	for _, size := range s.Cfg.Sizes {
		fmt.Fprintf(t, "%d", size)
		for _, d := range []int{0, 10, 20, 30} {
			for _, r := range dRows {
				if r.Size == size && r.DeltaPct == d {
					fmt.Fprintf(t, "\t%.1f", r.AvgErrPct)
				}
			}
		}
		fmt.Fprintln(t)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

func renderFigure11(w io.Writer) error {
	r, err := Figure11()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Figure 11: worked example ==")
	fmt.Fprintf(w, "query %s: true=%d treelattice=%.1f treesketches=%.1f\n\n",
		r.Query, r.TrueCount, r.TreeLattice, r.Sketch)
	return nil
}

func (s *Suite) renderNegative(w io.Writer) error {
	rows, err := s.Negative()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Negative workloads: % of zero-selectivity queries answered exactly 0 ==")
	t := tw(w)
	fmt.Fprint(t, "dataset\tqueries")
	for _, n := range EstimatorNames {
		fmt.Fprintf(t, "\t%s", n)
	}
	fmt.Fprintln(t)
	for _, p := range s.Cfg.Profiles {
		var queries int
		vals := make(map[string]float64)
		for _, r := range rows {
			if r.Dataset == p {
				queries = r.Queries
				vals[r.Estimator] = r.ZeroPct
			}
		}
		fmt.Fprintf(t, "%s\t%d", p, queries)
		for _, n := range EstimatorNames {
			fmt.Fprintf(t, "\t%.1f", vals[n])
		}
		fmt.Fprintln(t)
	}
	t.Flush()
	fmt.Fprintln(w)
	return nil
}

// timeUnit picks a rounding unit that keeps durations readable.
func timeUnit(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return 10 * time.Millisecond
	case d >= time.Millisecond:
		return 10 * time.Microsecond
	default:
		return 100 * time.Nanosecond
	}
}

package experiments

import (
	"fmt"

	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/metrics"
	"treelattice/internal/online"
	"treelattice/internal/workload"
)

// AdaptationRow is one pass of the online-tuning experiment: score the
// held-out workload, then feed the training workload's true
// cardinalities back (as if those queries had executed).
type AdaptationRow struct {
	Dataset datagen.Profile
	Pass    int
	// HeldOut counts the scored queries: a positive workload drawn with
	// the next seed, without the training queries and repeats.
	HeldOut     int
	AvgErrPct   float64
	Corrections int
	UsedBytes   int
}

// Adaptation runs the XPathLearner-style feedback loop for the given
// number of passes over each dataset, with a correction budget
// proportional to the summary size. The tuner learns from the positive
// workload and is scored on held-out queries, so a pass's error is what
// feedback buys on queries the tuner was not given.
func (s *Suite) Adaptation(passes int) ([]AdaptationRow, error) {
	var rows []AdaptationRow
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		heldOut, err := s.heldOut(e)
		if err != nil {
			return nil, err
		}
		sanity := e.sanity()
		budget := e.Summary.SizeBytes() / 4
		if budget < 512 {
			budget = 512
		}
		tuner := online.NewTuner(e.Summary.Lattice(), budget)
		for pass := 1; pass <= passes; pass++ {
			var errs []float64
			for _, q := range heldOut {
				errs = append(errs, metrics.AbsError(float64(q.TrueCount), tuner.Estimate(q.Pattern), sanity))
			}
			rows = append(rows, AdaptationRow{
				Dataset:     p,
				Pass:        pass,
				HeldOut:     len(heldOut),
				AvgErrPct:   100 * metrics.Mean(errs),
				Corrections: tuner.Corrections(),
				UsedBytes:   tuner.UsedBytes(),
			})
			for _, size := range s.Cfg.Sizes {
				for _, q := range e.Positive[size] {
					tuner.Feedback(q.Pattern, q.TrueCount)
				}
			}
		}
	}
	return rows, nil
}

// heldOut draws a positive workload like e's with the next seed and keeps
// each query that is neither in e's positive workload nor a repeat.
func (s *Suite) heldOut(e *Env) ([]workload.Query, error) {
	qs, err := workload.Positive(e.Tree, workload.Options{Sizes: s.Cfg.Sizes, PerSize: s.Cfg.PerSize, Seed: s.Cfg.Seed + 1})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s held-out workload: %w", e.Profile, err)
	}
	seen := make(map[labeltree.Key]bool)
	for _, size := range s.Cfg.Sizes {
		for _, q := range e.Positive[size] {
			seen[q.Pattern.Key()] = true
		}
	}
	var out []workload.Query
	for _, size := range s.Cfg.Sizes {
		for _, q := range qs[size] {
			if k := q.Pattern.Key(); !seen[k] {
				seen[k] = true
				out = append(out, q)
			}
		}
	}
	return out, nil
}

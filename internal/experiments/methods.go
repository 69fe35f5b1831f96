package experiments

import (
	"context"
	"fmt"

	"treelattice/internal/core"
	"treelattice/internal/datagen"
	"treelattice/internal/metrics"
)

// MethodRow is one registered estimation method's q-error on one
// dataset's positive workload (beyond the paper): the paper's three
// decomposition strategies beside every other method core's method
// table serves, scored against the workload's TrueCount.
type MethodRow struct {
	Dataset datagen.Profile
	Method  core.Method
	Queries int
	// The q-error distribution (metrics.QError) over the queries.
	MeanQError   float64
	MedianQError float64
	P95QError    float64
	MaxQError    float64
	// The recursive+voting row scores its decomposition-choice interval
	// (Summary.Explain) as an error signal: Covered counts intervals that
	// contain the true count, Misses the queries with q-error ≥ 2, and
	// Caught those misses whose interval is wide (Hi ≥ 2·Lo). They stay
	// zero for the other methods.
	Covered, Misses, Caught int
}

// Methods estimates each dataset's positive workload under every method
// in core's method table, strictly (no fallback to a cheaper method),
// so each row describes the method itself.
func (s *Suite) Methods() ([]MethodRow, error) {
	ctx := context.Background()
	var rows []MethodRow
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		for _, m := range core.RegisteredMethods() {
			row := MethodRow{Dataset: p, Method: m}
			var qerrs []float64
			for _, size := range s.Cfg.Sizes {
				for _, q := range e.Positive[size] {
					de, err := e.Summary.EstimateStrict(ctx, q.Pattern, m)
					if err != nil {
						return nil, fmt.Errorf("experiments: %s %s: %w", p, m, err)
					}
					truth := float64(q.TrueCount)
					qe := metrics.QError(de.Estimate, truth)
					qerrs = append(qerrs, qe)
					if m != core.MethodRecursiveVoting {
						continue
					}
					_, _, iv, err := e.Summary.Explain(ctx, q.Pattern)
					if err != nil {
						return nil, fmt.Errorf("experiments: %s interval: %w", p, err)
					}
					if iv.Contains(truth) {
						row.Covered++
					}
					if qe >= 2 {
						row.Misses++
						if iv.Hi >= 2*iv.Lo {
							row.Caught++
						}
					}
				}
			}
			row.Queries = len(qerrs)
			row.MeanQError = metrics.Mean(qerrs)
			row.MedianQError = metrics.Percentile(qerrs, 0.5)
			row.P95QError = metrics.Percentile(qerrs, 0.95)
			row.MaxQError = metrics.Percentile(qerrs, 1)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

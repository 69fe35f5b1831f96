package experiments

import (
	"context"
	"errors"
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
	// Queries counts the scored estimates. Exhausted counts queries the
	// method could not answer within its budget; they are not scored.
	Queries   int
	Exhausted int
	// The q-error distribution (metrics.QError) over the scored queries.
	MeanQError   float64
	MedianQError float64
	P95QError    float64
	MaxQError    float64
	// Checked and Divergent count the ensemble's cross-check verdicts;
	// they stay zero for the other methods.
	Checked   int
	Divergent int
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
					if errors.Is(err, core.ErrBudgetExhausted) {
						row.Exhausted++
						continue
					}
					if err != nil {
						return nil, fmt.Errorf("experiments: %s %s: %w", p, m, err)
					}
					qerrs = append(qerrs, metrics.QError(de.Estimate, float64(q.TrueCount)))
					if de.Checked {
						row.Checked++
						if de.Divergent {
							row.Divergent++
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

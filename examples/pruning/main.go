// Pruning: trading memory for accuracy with δ-derivable pattern pruning
// (Section 4.3 of the paper). A 0-derivable pattern is reconstructed
// exactly by decomposition, so dropping it is free; larger δ values drop
// approximately-derivable patterns too, shrinking the summary at a
// bounded cost in accuracy.
package main

import (
	"fmt"
	"log"

	"treelattice"
	"treelattice/internal/datagen"
	"treelattice/internal/metrics"
	"treelattice/internal/workload"
)

func main() {
	dict := treelattice.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: datagen.IMDB, Scale: 30000, Seed: 2}, dict)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := treelattice.Build(tree, treelattice.BuildOptions{K: 4})
	if err != nil {
		log.Fatal(err)
	}

	// A fixed evaluation workload of size-6 twigs with known counts.
	queries, err := workload.Positive(tree, workload.Options{Sizes: []int{6}, PerSize: 40, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	var truths []int64
	for _, q := range queries[6] {
		truths = append(truths, q.TrueCount)
	}
	sanity := metrics.SanityBound(truths)

	fmt.Printf("document: %d elements; full 4-lattice: %d patterns, %.1f KB\n\n",
		tree.Size(), sum.Patterns(), float64(sum.SizeBytes())/1024)
	fmt.Printf("%8s %10s %10s %12s\n", "delta", "patterns", "size(KB)", "avg err (%)")
	for _, delta := range []float64{-1, 0, 0.1, 0.2, 0.3} {
		s := sum
		label := "none"
		if delta >= 0 {
			s = sum.Prune(delta)
			label = fmt.Sprintf("%.0f%%", delta*100)
		}
		var errs []float64
		for _, q := range queries[6] {
			est, err := s.Estimate(q.Pattern, treelattice.MethodRecursiveVoting)
			if err != nil {
				log.Fatal(err)
			}
			errs = append(errs, metrics.AbsError(float64(q.TrueCount), est, sanity))
		}
		fmt.Printf("%8s %10d %10.1f %12.1f\n",
			label, s.Patterns(), float64(s.SizeBytes())/1024, 100*metrics.Mean(errs))
	}
	fmt.Println("\ndelta=0 keeps estimates identical while shrinking the summary;")
	fmt.Println("larger deltas trade more space for bounded extra error.")
}

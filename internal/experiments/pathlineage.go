package experiments

import (
	"math/rand"

	"treelattice/internal/bloomhist"
	"treelattice/internal/cst"
	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/markov"
	"treelattice/internal/metrics"
	"treelattice/internal/pathtree"
	"treelattice/internal/twigjoin"
)

// PathLineageRow is one point of the path-selectivity lineage comparison
// the paper's related work recounts: the Markov table (which TreeLattice
// provably subsumes, Lemma 4) against the path tree, the Bloom histogram,
// and CST on pure path workloads.
type PathLineageRow struct {
	Dataset   datagen.Profile
	Length    int
	Estimator string
	AvgErrPct float64
}

// PathEstimatorNames lists the path-lineage comparison set.
var PathEstimatorNames = []string{"markov", "pathtree", "bloomhist", "cst"}

// PathLineage samples positive path workloads per length and evaluates
// the lineage. Lengths beyond the summaries' stored length exercise each
// method's extension behaviour (Markov extension vs. nothing).
func (s *Suite) PathLineage() ([]PathLineageRow, error) {
	lengths := []int{2, 3, 4, 5, 6}
	var rows []PathLineageRow
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		tb := markov.Build(e.Tree, s.Cfg.K)
		pt := pathtree.Build(e.Tree, pathtree.Options{})
		bh := bloomhist.Build(e.Tree, bloomhist.Options{MaxPathLen: s.Cfg.K})
		ct := cst.Build(e.Tree, cst.Options{MaxPathLen: s.Cfg.K})
		ests := map[string]func([]labeltree.LabelID) float64{
			"markov":   tb.Estimate,
			"pathtree": pt.EstimatePath,
			"bloomhist": func(ls []labeltree.LabelID) float64 {
				if len(ls) > s.Cfg.K {
					return 0 // bloom histograms do not extend beyond L
				}
				v, _ := bh.EstimatePath(ls)
				return v
			},
			"cst": ct.PathCount,
		}
		for _, length := range lengths {
			paths, counts := samplePaths(e, length, s.Cfg.PerSize, s.Cfg.Seed)
			if len(paths) == 0 {
				continue
			}
			sanity := metrics.SanityBound(counts)
			for _, name := range PathEstimatorNames {
				fn := ests[name]
				var errs []float64
				for i, path := range paths {
					errs = append(errs, metrics.AbsError(float64(counts[i]), fn(path), sanity))
				}
				rows = append(rows, PathLineageRow{
					Dataset: p, Length: length, Estimator: name,
					AvgErrPct: 100 * metrics.Mean(errs),
				})
			}
		}
	}
	return rows, nil
}

// samplePaths draws distinct positive downward label paths of the given
// length by walking up from random nodes, with true counts.
func samplePaths(e *Env, length, perLength int, seed int64) ([][]labeltree.LabelID, []int64) {
	rng := rand.New(rand.NewSource(seed + int64(length)))
	seen := make(map[string]bool)
	var paths [][]labeltree.LabelID
	var counts []int64
	for attempt := 0; attempt < perLength*100 && len(paths) < perLength; attempt++ {
		v := int32(rng.Intn(e.Tree.Size()))
		chain := make([]labeltree.LabelID, 0, length)
		at := v
		for len(chain) < length && at >= 0 {
			chain = append(chain, e.Tree.Label(at))
			at = e.Tree.Parent(at)
		}
		if len(chain) < length {
			continue
		}
		// chain is leaf-to-root; reverse to a downward path.
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		key := ""
		for _, l := range chain {
			key += string(rune(l)) + "/"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		count := twigjoin.CountPattern(e.Index, labeltree.PathPattern(chain...))
		if count == 0 {
			continue
		}
		paths = append(paths, chain)
		counts = append(counts, count)
	}
	return paths, counts
}

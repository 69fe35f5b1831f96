package experiments

import (
	"fmt"
	"slices"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/datagen"
	"treelattice/internal/mine"
)

// Table1Row is one dataset-characteristics row (Table 1 of the paper).
type Table1Row struct {
	Dataset  datagen.Profile
	Elements int
	FileKB   int64
	Labels   int
	MaxDepth int
}

// Table1 reports the characteristics of the generated datasets.
func (s *Suite) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		size, err := e.XMLSize()
		if err != nil {
			return nil, err
		}
		st := e.Tree.Stats()
		rows = append(rows, Table1Row{
			Dataset:  p,
			Elements: st.Nodes,
			FileKB:   size >> 10,
			Labels:   st.Labels,
			MaxDepth: st.MaxDepth,
		})
	}
	return rows, nil
}

// Table2Row reports the number of distinct occurred subtree patterns per
// level (Table 2 of the paper).
type Table2Row struct {
	Level    int
	Patterns map[datagen.Profile]int
}

// Table2 mines each dataset to level 5 and counts patterns per level.
func (s *Suite) Table2() ([]Table2Row, error) {
	const levels = 5
	rows := make([]Table2Row, levels)
	for i := range rows {
		rows[i] = Table2Row{Level: i + 1, Patterns: make(map[datagen.Profile]int)}
	}
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		sizes, err := mine.CountPerLevel(e.Tree, levels, mine.Options{})
		if err != nil {
			return nil, err
		}
		for l := 1; l <= levels; l++ {
			rows[l-1].Patterns[p] = sizes[l]
		}
	}
	return rows, nil
}

// Table3Row compares summary construction cost and size (Table 3).
type Table3Row struct {
	Dataset     datagen.Profile
	LatticeTime time.Duration
	SketchTime  time.Duration
	LatticeKB   float64
	SketchKB    float64
}

// table3Builds is how many times Table 3 builds each profile's lattice;
// a row reports the median build.
const table3Builds = 5

// Table3 reports construction time and memory utilization for TreeLattice
// (K-lattice) versus TreeSketches (fixed budget). It times table3Builds
// lattice builds per profile in rounds, each round building every
// profile's once, so one slow stretch of the host moves at most one of a
// profile's builds; each row reports its median build. Each sketch is
// built once, with its environment, and that build is its time.
func (s *Suite) Table3() ([]Table3Row, error) {
	envs := make([]*Env, len(s.Cfg.Profiles))
	for i, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			return nil, err
		}
		envs[i] = e
	}
	builds := make([][table3Builds]time.Duration, len(envs))
	for round := range table3Builds {
		for i, e := range envs {
			start := time.Now()
			if _, err := core.Build(e.Tree, core.BuildOptions{K: s.Cfg.K}); err != nil {
				return nil, fmt.Errorf("experiments: %s summary: %w", e.Profile, err)
			}
			builds[i][round] = time.Since(start)
		}
	}
	rows := make([]Table3Row, len(envs))
	for i, e := range envs {
		slices.Sort(builds[i][:])
		rows[i] = Table3Row{
			Dataset:     e.Profile,
			LatticeTime: builds[i][table3Builds/2],
			SketchTime:  e.SketchBuild,
			LatticeKB:   float64(e.Summary.SizeBytes()) / 1024,
			SketchKB:    float64(e.Sketch.SizeBytes()) / 1024,
		}
	}
	return rows, nil
}

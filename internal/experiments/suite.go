package experiments

import (
	"fmt"
	"io"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/treesketch"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
	"treelattice/internal/xmlparse"
)

// Env bundles everything built for one dataset: the document, the
// TreeLattice summary, the TreeSketches synopsis and its build time, and
// workloads. Envs are built lazily and cached by the Suite.
type Env struct {
	Profile datagen.Profile
	Dict    *labeltree.Dict
	Tree    *labeltree.Tree
	// Index region-encodes Tree for exact counts.
	Index *twigjoin.Index

	Summary     *core.Summary // K-lattice
	Sketch      *treesketch.Synopsis
	SketchBuild time.Duration

	Positive map[int][]workload.Query
	Negative map[int][]workload.Query
}

// Suite lazily builds and caches per-dataset environments for one Config.
type Suite struct {
	Cfg  Config
	envs map[datagen.Profile]*Env
}

// NewSuite returns a suite for cfg (zero fields take defaults).
func NewSuite(cfg Config) *Suite {
	cfg.fill()
	return &Suite{Cfg: cfg, envs: make(map[datagen.Profile]*Env)}
}

// Env returns the cached environment for profile, building it on first
// use.
func (s *Suite) Env(profile datagen.Profile) (*Env, error) {
	if e, ok := s.envs[profile]; ok {
		return e, nil
	}
	dict := labeltree.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: profile, Scale: s.Cfg.Scale, Seed: s.Cfg.Seed}, dict)
	if err != nil {
		return nil, err
	}
	e := &Env{Profile: profile, Dict: dict, Tree: tree, Index: twigjoin.NewIndex(tree)}

	e.Summary, err = core.Build(tree, core.BuildOptions{K: s.Cfg.K})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s summary: %w", profile, err)
	}

	start := time.Now()
	e.Sketch = treesketch.Build(tree, treesketch.Options{BudgetBytes: s.Cfg.SketchBudget})
	e.SketchBuild = time.Since(start)

	wopts := workload.Options{Sizes: s.Cfg.Sizes, PerSize: s.Cfg.PerSize, Seed: s.Cfg.Seed}
	e.Positive, err = workload.Positive(tree, wopts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s workload: %w", profile, err)
	}
	e.Negative, err = workload.Negative(tree, e.Positive, wopts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s negative workload: %w", profile, err)
	}
	s.envs[profile] = e
	return e, nil
}

// XMLSize serializes the document and reports its size in bytes (the
// "file size" column of Table 1).
func (e *Env) XMLSize() (int64, error) {
	var cw countingWriter
	if err := xmlparse.Write(&cw, e.Tree); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)

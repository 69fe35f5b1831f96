package corpus

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/metrics"
	"treelattice/internal/xmlparse"
)

// BatchDoc names one document of a batch ingest.
type BatchDoc struct {
	Name string
	R    io.Reader
}

// AddXMLBatch ingests several documents at once through the parallel
// build pipeline: all documents are parsed first (sequentially, so label
// interning order — and therefore the on-disk summary — is deterministic),
// then fanned out across a worker pool that mines each into a private
// shard lattice, pairwise-reduced into one increment. The increment
// lands in the delta as one change set and one epoch.
//
// The batch is atomic: name validation, parsing, and mining all complete
// before the delta is touched, and a failed document write takes the
// batch's other files back out, so a bad document or a canceled context
// leaves the corpus as it was. The result is bit-identical to adding the
// documents one by one in order, for any worker count (counts are
// additive across documents).
func (c *Corpus) AddXMLBatch(ctx context.Context, docs []BatchDoc) error {
	if len(docs) == 0 {
		return nil
	}
	if err := c.checkWritable(); err != nil {
		return err
	}
	c.mu.Lock()
	err := c.checkNames(docs)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	timings := &metrics.BuildTimings{}
	stop := timings.Start("parse")
	trees := make([]*labeltree.Tree, len(docs))
	for i, d := range docs {
		tree, err := xmlparse.Parse(d.R, c.dict, c.parseOptions())
		if err != nil {
			stop()
			return fmt.Errorf("corpus: parsing %q: %w", d.Name, err)
		}
		trees[i] = tree
	}
	stop()
	inc, err := c.mine(ctx, trees, timings)
	if err != nil {
		return err
	}
	st := c.ing.Load()
	over, err := c.applyAdd(st, docs, trees, inc, timings)
	if err != nil {
		return err
	}
	c.lastBuild.Store(timings)
	return c.settle(st, over, timings)
}

// checkNames rejects invalid names, names repeated within the batch, and
// names the corpus holds or is still removing. Callers hold mu.
func (c *Corpus) checkNames(docs []BatchDoc) error {
	seen := make(map[string]bool, len(docs))
	for _, d := range docs {
		if err := validName(d.Name); err != nil {
			return err
		}
		if seen[d.Name] || c.taken(d.Name) {
			return fmt.Errorf("%w: %q", ErrDocExists, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// applyAdd lands a mined batch under the write lock: the increment
// enters the delta, the documents are written to docs/, and the next
// epoch lists them. It reports whether the delta crossed a refreeze
// watermark.
func (c *Corpus) applyAdd(st *ingestState, docs []BatchDoc, trees []*labeltree.Tree, inc *lattice.Summary, timings *metrics.BuildTimings) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNames(docs); err != nil {
		return false, err
	}
	if err := c.admit(st); err != nil {
		return false, err
	}
	stop := timings.Start("merge")
	next, err := c.delta.Apply(inc)
	stop()
	if err != nil {
		return false, err
	}
	if err := c.unlinkSummary(); err != nil {
		return false, err
	}
	stop = timings.Start("persist")
	defer stop()
	for i, d := range docs {
		if err := c.writeDoc(d.Name, trees[i]); err != nil {
			for _, w := range docs[:i] {
				os.Remove(c.docPath(w.Name, docExt))
			}
			return false, err
		}
	}
	ep := c.epochs.Current()
	names := append([]string(nil), ep.Names...)
	all := append([]*labeltree.Tree(nil), ep.Docs...)
	changes := make([]change, len(docs))
	for i, d := range docs {
		j := sort.SearchStrings(names, d.Name)
		names = slices.Insert(names, j, d.Name)
		all = slices.Insert(all, j, trees[i])
		changes[i] = change{name: d.Name}
	}
	return c.land(st, next, changes, all, names), nil
}

// mine mines trees into one increment at the corpus configuration.
func (c *Corpus) mine(ctx context.Context, trees []*labeltree.Tree, timings *metrics.BuildTimings) (*lattice.Summary, error) {
	sum, err := core.BuildForestContext(ctx, trees, core.BuildOptions{
		K:       c.opts.K,
		Workers: c.workers,
		Timings: timings,
	})
	if err != nil {
		return nil, err
	}
	return sum.Lattice(), nil
}

package corpus

import (
	"context"
	"fmt"

	"treelattice/internal/core"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
)

// BuildShardSummaries splits the corpus into n shard summaries by
// deterministic document→shard assignment (fleet.AssignShard over the
// document name) and mines each shard's forest independently. The
// returned slice has exactly n entries; a shard that drew no documents
// holds an empty summary at the corpus K, so shard files are positional
// and a fleet of N backends always loads N snapshots.
//
// Because per-document counts are additive, the shard summaries combined
// by the fleet's scatter-gather front end (core.FromShards) answer
// bit-identically to the corpus's own merged summary.
func (c *Corpus) BuildShardSummaries(ctx context.Context, n, workers int) ([]*core.Summary, error) {
	if n < 1 || n > fleet.MaxShards {
		return nil, fmt.Errorf("corpus: shard count %d out of range [1,%d]", n, fleet.MaxShards)
	}
	groups := make([][]*labeltree.Tree, n)
	ep := c.epochs.Current()
	for i, name := range ep.Names {
		s := fleet.AssignShard(name, n)
		groups[s] = append(groups[s], ep.Docs[i])
	}
	out := make([]*core.Summary, n)
	for i, g := range groups {
		if len(g) == 0 {
			out[i] = core.FromLattice(lattice.New(c.opts.K, c.dict))
			continue
		}
		sum, err := core.BuildForestContext(ctx, g, core.BuildOptions{K: c.opts.K, Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("corpus: building shard %d: %w", i, err)
		}
		out[i] = sum
	}
	return out, nil
}

// Package planner turns TreeLattice selectivity estimates into twig
// evaluation plans — the query-optimization application the paper
// motivates ("determining an optimal query plan, based on said
// estimates, for complex queries").
//
// The twigjoin executor binds query nodes one at a time, parent before
// child, scanning a candidate list per binding. Evaluating the branches
// under a node in sequence has the classic pipelined-selection structure:
// with branch fanouts f (expected matches per parent binding) and
// per-probe costs c, evaluating branch 1 before branch 2 costs
// c1 + f1·c2 versus c2 + f2·c1, so branches are ordered by ascending rank
// (f − 1)/c — filters (f < 1) first, cheap filters before expensive ones,
// expanding branches (f > 1) last. Both f and c come from TreeLattice
// estimates.
package planner

import (
	"sort"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
)

// Plan is a bind order for a query with its estimation detail.
type Plan struct {
	// Order is the node binding order (parent always before child).
	Order []int32
	// PathEstimates holds, per query node, the estimated selectivity of
	// the root-to-node anchor path.
	PathEstimates []float64
	// EstimatedMatches is the estimated selectivity of the whole query.
	EstimatedMatches float64
	// PredictedCandidates is the cost model's prediction of
	// twigjoin.Stats.Candidates for the execution: each query node is
	// predicted to scan as many candidates as its anchor path has
	// matches (Σ PathEstimates). Comparing it with the measured
	// Stats.Candidates yields the calibration ratio exported by the
	// serving layer — the signal that validates the model with real
	// work.
	PredictedCandidates float64
}

// Choose builds a plan for q against the estimator.
//
// Descendant-axis fallback: the estimator sees child-axis patterns
// regardless of the query's axes — the lattice stores child-edge
// statistics, so a descendant ("//") edge is planned by the selectivity
// of the corresponding child edge. That underestimates descendant fanout
// on recursive documents but preserves the *relative* branch ordering
// whenever recursion is limited, which is what the rank needs; the
// executor's region-containment probes evaluate the true descendant
// semantics either way.
func Choose(q twigjoin.Query, est estimate.Estimator) Plan {
	p := q.Pattern
	n := p.Size()
	c := &chooser{p: p, est: est}
	c.pathEst = make([]float64, n)
	for i := int32(0); int(i) < n; i++ {
		c.pathEst[i] = est.Estimate(anchorPath(p, i))
	}
	order := make([]int32, 0, n)
	var visit func(i int32)
	visit = func(i int32) {
		order = append(order, i)
		kids := append([]int32(nil), p.Children(i)...)
		ranks := make(map[int32]float64, len(kids))
		for _, k := range kids {
			ranks[k] = c.rank(i, k)
		}
		sort.Slice(kids, func(a, b int) bool {
			if ranks[kids[a]] != ranks[kids[b]] {
				return ranks[kids[a]] < ranks[kids[b]]
			}
			return kids[a] < kids[b]
		})
		for _, k := range kids {
			visit(k)
		}
	}
	visit(0)
	var predicted float64
	for _, pe := range c.pathEst {
		predicted += pe
	}
	return Plan{
		Order:               order,
		PathEstimates:       c.pathEst,
		EstimatedMatches:    est.Estimate(p),
		PredictedCandidates: predicted,
	}
}

type chooser struct {
	p       labeltree.Pattern
	est     estimate.Estimator
	pathEst []float64
}

// rank scores the branch rooted at child c of node i: (fanout − 1)/cost,
// ascending-better.
func (ch *chooser) rank(i, c int32) float64 {
	f := ch.branchFanout(i, c)
	cost := ch.branchCost(c)
	if cost <= 0 {
		cost = 1e-9
	}
	return (f - 1) / cost
}

// branchFanout is the expected number of matches of the whole branch
// (anchor path to i plus the entire subtree under c) per binding of i.
func (ch *chooser) branchFanout(i, c int32) float64 {
	if ch.pathEst[i] <= 0 {
		return 0
	}
	nodes := ch.chainTo(i)
	nodes = append(nodes, ch.subtree(c)...)
	branch := ch.p.Subpattern(nodes)
	return ch.est.Estimate(branch) / ch.pathEst[i]
}

// branchCost approximates the candidates scanned evaluating the branch
// once: each node contributes its expected per-parent match count, and a
// node's children are only probed per match of the node.
func (ch *chooser) branchCost(c int32) float64 {
	m := ch.stepFanout(c)
	var childSum float64
	for _, k := range ch.p.Children(c) {
		childSum += ch.branchCost(k)
	}
	return m + m*childSum
}

// stepFanout is the expected matches of node n's anchor path per binding
// of its parent's anchor path.
func (ch *chooser) stepFanout(n int32) float64 {
	par := ch.p.Parent(n)
	if par < 0 || ch.pathEst[par] <= 0 {
		return 0
	}
	return ch.pathEst[n] / ch.pathEst[par]
}

// chainTo returns the query nodes on the path from the root to i.
func (ch *chooser) chainTo(i int32) []int32 {
	var chain []int32
	for at := i; at >= 0; at = ch.p.Parent(at) {
		chain = append(chain, at)
	}
	return chain
}

// subtree returns all query nodes in the subtree rooted at c.
func (ch *chooser) subtree(c int32) []int32 {
	out := []int32{c}
	for i := 0; i < len(out); i++ {
		out = append(out, ch.p.Children(out[i])...)
	}
	return out
}

// anchorPath extracts the root-to-node path pattern of p ending at node i.
func anchorPath(p labeltree.Pattern, i int32) labeltree.Pattern {
	var chain []int32
	for at := i; at >= 0; at = p.Parent(at) {
		chain = append(chain, at)
	}
	labels := make([]labeltree.LabelID, 0, len(chain))
	for j := len(chain) - 1; j >= 0; j-- {
		labels = append(labels, p.Label(chain[j]))
	}
	return labeltree.PathPattern(labels...)
}

// Execute counts q's matches with the plan's bind order and reports the
// work performed. A query the counter refuses (more than
// twigjoin.MaxSiblingGroup same-label siblings) is counted by
// enumeration.
func Execute(x *twigjoin.Index, q twigjoin.Query, plan Plan) (int64, twigjoin.Stats) {
	st, err := twigjoin.CountContext(nil, x, q, plan.Order, nil)
	if err != nil {
		st = twigjoin.Enumerate(x, q, plan.Order, func(twigjoin.Match) bool { return true })
	}
	return st.Matches, st
}

// NaiveOrder is the stored-numbering baseline order, for comparisons.
func NaiveOrder(q twigjoin.Query) []int32 {
	order := make([]int32, q.Pattern.Size())
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

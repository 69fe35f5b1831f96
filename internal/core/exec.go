package core

import (
	"context"
	"errors"
	"fmt"

	"treelattice/internal/planner"
	"treelattice/internal/twigjoin"
)

// ErrNoDocuments reports a query execution against a summary with no
// bound documents — snapshot-only summaries (fleet tenants) can
// estimate but cannot answer queries.
var ErrNoDocuments = errors.New("treelattice: no documents bound to summary")

// DocNamer is an optional TreeSource capability: document names
// positionally aligned with Trees(). Sources that lack it get positional
// fallback names in query results.
type DocNamer interface {
	DocNames() []string
}

// TwigIndexerSource is an optional TreeSource capability: a shared
// per-document region-index cache built at corpus/snapshot load, so
// query execution never rebuilds an index for a tree it has seen.
type TwigIndexerSource interface {
	TwigIndexer() *twigjoin.Indexer
}

// ParseTwigQuery parses a twig query in the extended axis syntax
// ("a(b,//c)", with optional leading "/" or "//") against the summary's
// dictionary, classifying failures and interning nothing exactly like
// ParseQuery: syntax errors wrap ErrBadQuery, labels the dictionary has
// never seen wrap ErrUnknownLabel. This is the query-execution
// counterpart of ParseQuery, which accepts only the child-axis
// estimator syntax.
func (s *Summary) ParseTwigQuery(query string) (twigjoin.Query, error) {
	q, err := twigjoin.ParseKnownQuery(query, s.dict)
	if err != nil {
		return twigjoin.Query{}, parseError(err)
	}
	return q, nil
}

// QueryOptions configures ExecuteQueryContext.
type QueryOptions struct {
	// Method selects the estimator the planner consults for the bind
	// order of a request that materializes. Empty means MethodFixSized —
	// the fastest registered estimator, and planning only needs the
	// relative ordering.
	Method Method
	// Limit caps how many match tuples are materialized; Count stays
	// exact past it. 0 materializes nothing (count-only) and plans
	// nothing: the count binds in stored numbering.
	Limit int
	// NodeBudget bounds the candidates visited, plus the subset-DP steps
	// of same-label sibling groups, across the counting pass and the
	// materialization; 0 means unlimited. The pass's workers share it
	// (see twigjoin.Counter.CountCorpusContext), so it can stop a pass
	// a few thousand units short of the limit per extra worker. An
	// exhausted budget marks the result Degraded instead of failing.
	NodeBudget int64
	// NaiveOrder skips the planner and binds in stored numbering — the
	// baseline side of every plan-vs-naive comparison.
	NaiveOrder bool
}

// QueryMatch is one materialized match tuple: Nodes[i] is the data node
// (preorder id within Doc) bound to query node i.
type QueryMatch struct {
	Doc   string  `json:"doc"`
	Nodes []int32 `json:"nodes"`
}

// QueryResult is the outcome of a twig query execution.
type QueryResult struct {
	// Count is the number of matches found. When Degraded, it is the
	// count up to the point the node budget ran out.
	Count int64
	// Matches holds up to QueryOptions.Limit materialized tuples.
	Matches []QueryMatch
	// Truncated reports that more matches exist than were materialized.
	Truncated bool
	// Degraded reports the node budget ran out: in the counting pass, so
	// Count is a partial answer and no tuple is materialized, or while
	// materializing, so Count is exact and Matches stops short.
	Degraded bool
	// Fallback reports that the product counter cannot count the query
	// exactly, so its matches were counted by enumeration: two query
	// nodes share a label, neither is the other's ancestor, they are not
	// siblings in one same-label group, and a "//" edge lies on the path
	// from their lowest common ancestor to one of them (see
	// twigjoin.Counter).
	Fallback bool
	// DocsScanned is how many documents the counting pass began to
	// count.
	DocsScanned int
	// Stats is the measured work, summed across documents: the
	// candidates the counting pass and the materialization visited, and
	// the count.
	Stats twigjoin.Stats
	// Plan is the bind order used, with its estimates. For a count-only
	// or naive-order execution PredictedCandidates is 0 and Calibration
	// is absent.
	Plan planner.Plan
	// PlanMethod is the estimator method that drove the plan ("" for
	// naive order).
	PlanMethod Method
	// Calibration is measured candidates / predicted candidates — the
	// cost model's validation signal, 0 when no prediction was made or
	// the query is a Fallback one.
	Calibration float64
}

// twigIndexer returns the region-index cache for the bound documents: the
// source's shared one when it has one, else a summary-local cache created
// on first use (plain Build summaries).
func (s *Summary) twigIndexer() *twigjoin.Indexer {
	if ts, ok := s.Source().(TwigIndexerSource); ok {
		if ix := ts.TwigIndexer(); ix != nil {
			return ix
		}
	}
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	if s.indexer == nil {
		s.indexer = twigjoin.NewIndexer()
	}
	return s.indexer
}

// ExecuteQueryContext answers a twig query against the summary's bound
// documents. It counts the matches of every document in one parallel
// pass (twigjoin.Counter.CountCorpusContext) under the node budget and
// ctx, then, when Limit asks for tuples, enumerates the documents whose
// count is positive in document order until it holds Limit tuples. A
// count-only request binds in stored order, as a NaiveOrder one does; a
// request that materializes binds in the order planner.Choose picks with
// this summary's estimator (the current epoch's view, since callers load
// the summary once per request), and reports the measured work next to
// the plan's prediction so that real executions validate the cost model.
// A query the product cannot count exactly (Fallback) is counted by
// enumeration inside the pass. A query node with more than
// twigjoin.MaxSiblingGroup same-label children fails with
// twigjoin.ErrSiblingGroup.
func (s *Summary) ExecuteQueryContext(ctx context.Context, q twigjoin.Query, opts QueryOptions) (*QueryResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	src := s.Source()
	if src == nil {
		return nil, fmt.Errorf("%w: cannot execute queries", ErrNoDocuments)
	}
	trees := src.Trees()
	if len(trees) == 0 {
		return nil, fmt.Errorf("%w: corpus is empty", ErrNoDocuments)
	}

	res := &QueryResult{}
	if opts.Limit == 0 || opts.NaiveOrder {
		res.Plan = planner.Plan{Order: planner.NaiveOrder(q)}
	} else {
		method := opts.Method
		if method == "" {
			method = MethodFixSized
		}
		est, err := s.Estimator(method)
		if err != nil {
			return nil, err
		}
		res.Plan = planner.Choose(q, est)
		res.PlanMethod = method
	}
	counter, err := twigjoin.NewCounter(q, res.Plan.Order)
	if err != nil {
		return nil, err
	}
	defer counter.Release()
	res.Fallback = counter.Fallback()

	indexer := s.twigIndexer()
	var budget *int64
	if opts.NodeBudget > 0 {
		b := opts.NodeBudget
		budget = &b
	}
	pass, err := counter.CountCorpusContext(ctx, indexer, trees, budget)
	res.Count, res.Stats, res.DocsScanned = pass.Stats.Matches, pass.Stats, pass.Scanned

	// Materialize from the documents the pass found matches in, charging
	// what it left of the budget.
	var names []string
	if dn, ok := src.(DocNamer); ok {
		names = dn.DocNames()
	}
	for i := 0; err == nil && i < len(trees) && len(res.Matches) < opts.Limit; i++ {
		if pass.Counts[i] == 0 {
			continue
		}
		name := fmt.Sprintf("doc[%d]", i)
		if i < len(names) {
			name = names[i]
		}
		var st twigjoin.Stats
		st, err = twigjoin.EnumerateContext(ctx, indexer.For(trees[i]), q, res.Plan.Order, budget, func(m twigjoin.Match) bool {
			res.Matches = append(res.Matches, QueryMatch{Doc: name, Nodes: append([]int32(nil), m...)})
			return len(res.Matches) < opts.Limit
		})
		res.Stats.Candidates += st.Candidates
	}
	if errors.Is(err, twigjoin.ErrNodeBudget) {
		res.Degraded = true
	} else if err != nil {
		return nil, err
	}
	res.Truncated = res.Count > int64(len(res.Matches)) && opts.Limit > 0
	// A fallback query's candidates are those of counting by enumeration,
	// which the plan's prediction does not model: it reports no
	// calibration.
	if res.Plan.PredictedCandidates > 0 && !res.Fallback {
		res.Calibration = float64(res.Stats.Candidates) / res.Plan.PredictedCandidates
	}
	return res, nil
}

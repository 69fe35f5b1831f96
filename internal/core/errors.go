package core

import "errors"

// Sentinel errors for the failure classes callers are expected to branch
// on with errors.Is. Returned errors wrap these with detail.
var (
	// ErrBadQuery reports a twig query that does not parse.
	ErrBadQuery = errors.New("treelattice: bad twig query")
	// ErrUnknownLabel reports a query referencing a label the summary's
	// dictionary has never seen. The true selectivity of such a query is
	// zero; callers that prefer 0 over an error can test for this.
	ErrUnknownLabel = errors.New("treelattice: unknown label")
	// ErrUnknownMethod reports an estimation method name that is not in
	// the method table; the wrapping error enumerates every method.
	ErrUnknownMethod = errors.New("treelattice: unknown estimation method")
	// ErrKTooLarge reports a BuildOptions.K beyond MaxK. Level-wise
	// enumeration is exponential in K; the cap keeps a mistyped K from
	// consuming the machine.
	ErrKTooLarge = errors.New("treelattice: K too large")
	// ErrPrunedSummary reports a fold against a pruned summary, whose
	// missing patterns cannot be maintained.
	ErrPrunedSummary = errors.New("treelattice: summary is pruned")
	// ErrDictMismatch reports trees or summaries that do not share a
	// label dictionary.
	ErrDictMismatch = errors.New("treelattice: different label dictionary")
	// ErrMethodUnavailable reports a known method that cannot serve
	// this summary — a document-needing method (markov, treesketch)
	// with no bound TreeSource or an empty corpus.
	ErrMethodUnavailable = errors.New("treelattice: method unavailable for this summary")
)

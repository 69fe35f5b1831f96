package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"treelattice/internal/labeltree"
)

// This file is the method table: every estimation method — the paper's
// decomposition estimators and the markov and treesketch baselines — is
// one row of a fixed, ordered table holding its name, its declared
// Capabilities and the function that binds it to a summary. A bound
// method (a Prepared) answers a query in one call. A Method is a table
// key, not a switch arm: every estimate entry point resolves it here.

// TreeSource supplies the corpus documents to methods that estimate from
// the trees themselves (markov, treesketch) rather than from
// the lattice summary. Trees must return documents in a stable order.
// *corpus.Corpus implements it; Build and BuildForestContext bind the
// built trees automatically.
type TreeSource interface {
	Trees() []*labeltree.Tree
}

// TreeSliceSource adapts a fixed slice of documents to TreeSource.
type TreeSliceSource []*labeltree.Tree

// Trees returns the slice.
func (s TreeSliceSource) Trees() []*labeltree.Tree { return s }

// Aggregate is one estimate's answer: the estimate, and whether the
// method's answer cache held it (only the recursive methods keep one).
type Aggregate struct {
	Estimate float64
	Cached   bool
}

// Capabilities describes a method, for the /v1/methods discovery
// endpoint and the degradation ladder. Every method runs on every store
// and under the batch endpoint's worker pool.
type Capabilities struct {
	// NeedsDocuments: preparing the method requires a bound TreeSource.
	NeedsDocuments bool `json:"needs_documents"`
	// Fallback names the cheaper method the degradation ladder retries
	// with when this one blows its budget; empty means nothing cheaper
	// exists.
	Fallback Method `json:"fallback,omitempty"`
	// Description is a one-line human summary for discovery output.
	Description string `json:"description"`
}

// Prepared is a method bound to one summary, ready to estimate. A
// Prepared must be safe for concurrent use: the batch endpoint fans
// queries across a worker pool sharing one instance.
type Prepared interface {
	// Estimate answers q, honoring ctx cooperatively.
	Estimate(ctx context.Context, q labeltree.Pattern) (Aggregate, error)
}

// estimateFunc adapts a function to Prepared; the function's closure
// holds the method's prepared state.
type estimateFunc func(ctx context.Context, q labeltree.Pattern) (Aggregate, error)

func (f estimateFunc) Estimate(ctx context.Context, q labeltree.Pattern) (Aggregate, error) {
	return f(ctx, q)
}

// methodRow is one row of the method table. prepare binds the method to
// a summary (building synopses, indexes, or tables as needed); the
// summary caches the result until it rebinds its document source.
type methodRow struct {
	method  Method
	caps    Capabilities
	prepare func(ctx context.Context, s *Summary) (Prepared, error)
}

// methodTable lists every estimation method in discovery order. The
// prepare functions live in backends.go.
var methodTable = [...]methodRow{
	{MethodRecursive, Capabilities{
		Fallback:    MethodFixSized,
		Description: "recursive leaf-pair decomposition (Section 3.2)",
	}, prepareRecursive},
	{MethodRecursiveVoting, Capabilities{
		Fallback:    MethodFixSized,
		Description: "recursive decomposition averaging all leaf pairs (Section 3.2, voting)",
	}, prepareRecursiveVoting},
	{MethodFixSized, Capabilities{
		Description: "preorder K-subtree cover with telescoping product (Section 3.3)",
	}, prepareFixSized},
	{MethodMarkov, Capabilities{
		NeedsDocuments: true,
		Description:    "Markov path table, twigs via root-to-leaf path independence (Lemma 4 baseline)",
	}, prepareMarkov},
	{MethodTreeSketch, Capabilities{
		NeedsDocuments: true,
		Description:    "TreeSketches graph synopsis per document, estimates summed (comparison baseline)",
	}, prepareTreeSketch},
}

// lookupMethod resolves a method to its table row. Unknown methods fail
// with an error wrapping ErrUnknownMethod that enumerates every method.
func lookupMethod(m Method) (*methodRow, error) {
	for i := range methodTable {
		if methodTable[i].method == m {
			return &methodTable[i], nil
		}
	}
	names := make([]string, len(methodTable))
	for i, row := range methodTable {
		names[i] = string(row.method)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownMethod, m, strings.Join(names, ", "))
}

// RegisteredMethods lists every method in table order — the discovery
// surface; Methods() remains the paper's three decomposition strategies.
func RegisteredMethods() []Method {
	out := make([]Method, len(methodTable))
	for i, row := range methodTable {
		out[i] = row.method
	}
	return out
}

// Fallback names the cheaper method EstimateDegradable retries with when
// method blows its budget, as the method table declares it: the
// recursive variants degrade to fix-sized decomposition (the fastest
// estimator), and no other method has anything cheaper to fall to.
func Fallback(method Method) (Method, bool) {
	row, err := lookupMethod(method)
	if err != nil {
		return "", false
	}
	return row.caps.Fallback, row.caps.Fallback != ""
}

// BindSource attaches the document source methods like markov and
// treesketch prepare from. Build and BuildForestContext bind the built
// trees automatically; corpora bind themselves on open. Binding
// invalidates prepared methods, which may hold the old source.
func (s *Summary) BindSource(src TreeSource) {
	s.prepMu.Lock()
	s.source = src
	s.prepared = nil
	s.prepMu.Unlock()
}

// Source returns the bound document source, or nil.
func (s *Summary) Source() TreeSource {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	return s.source
}

// LookupMethod validates a method against the method table without
// preparing it — the cheap validation path for request handlers.
func (s *Summary) LookupMethod(m Method) (Capabilities, error) {
	row, err := lookupMethod(m)
	if err != nil {
		return Capabilities{}, err
	}
	return row.caps, nil
}

// preparedFor returns the cached Prepared for the method of row, running
// the row's prepare on first use. Preparation runs outside the lock (it
// may be expensive — treesketch builds a synopsis per document), so two
// racing first uses may both prepare; the extra instance is dropped.
// The cache empties whenever the summary rebinds its source.
func (s *Summary) preparedFor(ctx context.Context, row *methodRow) (Prepared, error) {
	m := row.method
	s.prepMu.Lock()
	p, ok := s.prepared[m]
	s.prepMu.Unlock()
	if ok {
		return p, nil
	}
	p, err := row.prepare(ctx, s)
	if err != nil {
		return nil, err
	}
	s.prepMu.Lock()
	if prev, ok := s.prepared[m]; ok {
		p = prev // lost the race; keep the instance others may already use
	} else {
		if s.prepared == nil {
			s.prepared = make(map[Method]Prepared)
		}
		s.prepared[m] = p
	}
	s.prepMu.Unlock()
	return p, nil
}

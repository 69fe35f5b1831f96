// Package treelattice reproduces "A Decomposition-Based Probabilistic
// Framework for Estimating the Selectivity of XML Twig Queries" (Wang,
// Jin, Parthasarathy): the TreeLattice system for estimating how many
// matches a twig query has in an XML document, from a small summary of
// subtree-pattern counts.
//
// Quickstart:
//
//	dict := treelattice.NewDict()
//	tree, err := treelattice.ParseXML(file, dict)
//	sum, err := treelattice.BuildContext(ctx, tree, treelattice.BuildOptions{K: 4})
//	est, err := sum.EstimateQueryContext(ctx, "laptop(brand,price)", treelattice.MethodRecursiveVoting)
//
// The context-free variants (Build, EstimateQuery, ...) remain as thin
// wrappers over context.Background(). Builds parallelize across
// BuildOptions.Workers goroutines (default GOMAXPROCS) and abort promptly
// when ctx is canceled; BuildForestContext fans a whole document set out
// across the worker pool. Failures wrap the exported sentinel errors
// (ErrBadQuery, ErrUnknownLabel, ErrKTooLarge, ...) for errors.Is.
//
// The package re-exports the system's public surface; the implementation
// lives in the internal packages (see DESIGN.md for the map):
//
//   - internal/labeltree: tree and twig-pattern model
//   - internal/xmlparse: XML ↔ tree conversion
//   - internal/twigjoin: region index, twig execution and exact match
//     counting (ground truth)
//   - internal/mine: frequent subtree mining (summary construction)
//   - internal/lattice: the lattice summary store
//   - internal/estimate: the decomposition estimators and δ-pruning
//   - internal/markov: the Markov path-estimator special case
//   - internal/treesketch: the TreeSketches comparison baseline
//   - internal/datagen, internal/workload, internal/metrics,
//     internal/experiments: the evaluation harness
package treelattice

import (
	"context"
	"io"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
	"treelattice/internal/xpath"
)

// Core types, re-exported.
type (
	// Dict interns label strings; all trees and queries that interact
	// must share one.
	Dict = labeltree.Dict
	// Tree is a parsed XML document.
	Tree = labeltree.Tree
	// Pattern is a twig query or subtree pattern.
	Pattern = labeltree.Pattern
	// Summary is a TreeLattice summary supporting estimation.
	Summary = core.Summary
	// BuildOptions configures Build.
	BuildOptions = core.BuildOptions
	// Method selects an estimation strategy.
	Method = core.Method
)

// Estimation methods.
const (
	MethodRecursive       = core.MethodRecursive
	MethodRecursiveVoting = core.MethodRecursiveVoting
	MethodFixSized        = core.MethodFixSized
)

// MaxK caps BuildOptions.K; larger values fail with ErrKTooLarge.
const MaxK = core.MaxK

// Sentinel errors, re-exported for errors.Is against any failure this
// package returns.
var (
	// ErrBadQuery reports a twig query that does not parse.
	ErrBadQuery = core.ErrBadQuery
	// ErrUnknownLabel reports a query naming a label no document or
	// summary has ever carried; its true selectivity is zero.
	ErrUnknownLabel = core.ErrUnknownLabel
	// ErrUnknownMethod reports an estimation method outside Methods().
	ErrUnknownMethod = core.ErrUnknownMethod
	// ErrKTooLarge reports a BuildOptions.K beyond MaxK.
	ErrKTooLarge = core.ErrKTooLarge
	// ErrPrunedSummary reports incremental maintenance on a pruned summary.
	ErrPrunedSummary = core.ErrPrunedSummary
	// ErrDictMismatch reports mixed label dictionaries.
	ErrDictMismatch = core.ErrDictMismatch
)

// NewDict returns an empty label dictionary.
func NewDict() *Dict { return labeltree.NewDict() }

// ParseXML reads an XML document into a Tree.
func ParseXML(r io.Reader, dict *Dict) (*Tree, error) {
	return xmlparse.Parse(r, dict, xmlparse.Options{})
}

// WriteXML serializes a Tree as XML.
func WriteXML(w io.Writer, t *Tree) error { return xmlparse.Write(w, t) }

// ParseQuery parses the twig syntax "a(b,c(d))".
func ParseQuery(query string, dict *Dict) (Pattern, error) {
	return labeltree.ParsePattern(query, dict)
}

// Build mines a K-lattice summary from a document.
func Build(t *Tree, opts BuildOptions) (*Summary, error) { return core.Build(t, opts) }

// BuildContext is Build with cancellation and deadline awareness: the
// level-wise mining loop checks ctx between levels and while counting
// candidates. opts.Workers bounds the build's parallelism (0 means
// GOMAXPROCS).
func BuildContext(ctx context.Context, t *Tree, opts BuildOptions) (*Summary, error) {
	return core.BuildContext(ctx, t, opts)
}

// BuildForestContext mines one shared summary from several documents in
// parallel: each tree is mined into a private shard by a worker pool and
// the shards are merged. All trees must share a Dict, and the result is
// bit-identical to sequential mining regardless of worker count.
func BuildForestContext(ctx context.Context, trees []*Tree, opts BuildOptions) (*Summary, error) {
	return core.BuildForestContext(ctx, trees, opts)
}

// ReadSummary loads a summary serialized with Summary.WriteTo.
func ReadSummary(r io.Reader, dict *Dict) (*Summary, error) { return core.Read(r, dict) }

// ExactCount returns the true selectivity of q in t (Definition 1 of the
// paper), by exact counting rather than estimation. It builds a region
// index of t per call; index once with NewIndex and count with
// CountMatches to count many queries.
func ExactCount(t *Tree, q Pattern) int64 { return twigjoin.CountPattern(twigjoin.NewIndex(t), q) }

// Execution-side types, re-exported: compile XPath to twig queries, index
// a document, and enumerate actual matches (see internal/twigjoin and
// internal/planner).
type (
	// TwigQuery is a twig pattern with per-edge axes (child/descendant).
	TwigQuery = twigjoin.Query
	// Index is the region-encoded access structure queries execute on.
	Index = twigjoin.Index
	// MatchTuple is one query answer: data node per query node.
	MatchTuple = twigjoin.Match
)

// NewIndex region-encodes t for query execution.
func NewIndex(t *Tree) *Index { return twigjoin.NewIndex(t) }

// CompileXPath compiles an XPath-subset expression ("//a[b/c]//d") into a
// twig query. valueBuckets must match the document's parse options when
// value predicates are used (0 otherwise).
func CompileXPath(expr string, dict *Dict, valueBuckets int) (TwigQuery, error) {
	return xpath.Compile(expr, dict, xpath.Options{ValueBuckets: valueBuckets})
}

// CountMatches counts the matches of q in an indexed document, without
// enumerating them where the product counter is exact.
func CountMatches(x *Index, q TwigQuery) int64 { return twigjoin.Count(x, q) }

// Package corpus manages a directory of XML documents with a persistent,
// incrementally maintained TreeLattice summary — the packaging a
// downstream system embeds: add and remove documents, estimate twig
// selectivities across the whole corpus, and reopen without re-mining.
//
// Layout under the corpus root:
//
//	corpus.meta          K, bucket configuration (plain text key=value)
//	docs/<name>.tltr     each document in the binary tree format
//	docs/<name>.tomb     a removed document, kept until its removal is folded
//	epoch-NNNNNN.tlat    numbered base snapshots (or .tlcz when compressed)
//	epoch-NNNNNN.meta    numbered manifests: snapshot=<file> + doc=<name> lines
//	summary.tlat         the TLAT snapshot, while it counts every document
//
// Every write goes through one path (see ingest.go): the change lands in
// a copy-on-write delta, is published to readers as a new RCU epoch, and
// is folded into a new snapshot that a manifest commits. Without
// EnableIngest the fold runs inline, so a write is folded and durable
// when it returns; EnableIngest moves folds to a background refreezer.
// Readers never lock; writers serialize internally.
package corpus

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/fsx"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/metrics"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// Sentinel errors callers can branch on with errors.Is.
var (
	// ErrDocExists reports an add under a name already in the corpus, or
	// under a removed name whose removal is not folded yet.
	ErrDocExists = errors.New("corpus: document already exists")
	// ErrNoSuchDoc reports an operation on a name not in the corpus.
	ErrNoSuchDoc = errors.New("corpus: no such document")
	// ErrReadOnly reports a write against a corpus opened with
	// OpenReadOnly that has not enabled ingest.
	ErrReadOnly = errors.New("corpus: read-only replica")
)

// Options configures corpus creation.
type Options struct {
	// K is the lattice level (default 4).
	K int
	// ValueBuckets and Attributes pass through to XML parsing; they must
	// stay fixed for the corpus lifetime and are persisted in the meta
	// file.
	ValueBuckets int
	Attributes   bool
}

// Corpus is an open corpus. Reads are safe concurrently with each other
// and with writes; writes serialize internally.
type Corpus struct {
	dir  string
	opts Options
	dict *labeltree.Dict
	// readOnly rejects writes with ErrReadOnly unless ingest is enabled.
	readOnly bool
	workers  int
	// unboundedParse lifts the default XML parse limits (depth, node
	// count). Set for CLI bulk loads of trusted files; leave unset when
	// parsing untrusted uploads.
	unboundedParse bool
	// lastBuild holds the per-stage timings of the most recent add.
	lastBuild atomic.Pointer[metrics.BuildTimings]
	// indexer caches one twigjoin region index per document tree for
	// query execution and exact counts; built at load, shared across
	// epochs (epochs reuse unchanged tree pointers, so their indexes carry
	// over), and trimmed to the live documents at every fold.
	indexer *twigjoin.Indexer
	// epochs is the publication point every reader loads from.
	epochs core.EpochHandle

	// mu serializes writers: it guards the delta, the pending change log
	// and epoch publication.
	mu         sync.Mutex
	delta      *lattice.Delta
	pending    []change // unfolded changes, in arrival order
	deltaSince time.Time
	// summaryLinked records that summary.tlat exists; legacy, that no
	// manifest names a snapshot, so summary.tlat is the base itself.
	summaryLinked, legacy bool

	// foldMu serializes folds. base, folded and nextN change only under
	// both locks; foldLat is private to the fold.
	foldMu  sync.Mutex
	base    *core.Summary
	foldLat *lattice.Summary // map copy of base's counts; nil until the first fold
	folded  []string         // sorted names the committed snapshot counts
	nextN   uint64           // number of the next epoch snapshot and manifest

	// ing, when non-nil, is the background refreezer EnableIngest started.
	ing atomic.Pointer[ingestState]
}

// change is one unfolded write: an added document, or a removal whose
// tombstone stays in docs/ until a fold commits it.
type change struct {
	name    string
	removed bool
}

var _ core.TreeSource = (*Corpus)(nil)

// SetUnboundedParse lifts (true) or restores (false) the default XML
// parse limits for subsequent AddXML/AddXMLBatch calls. The limits exist
// for untrusted /v1/docs uploads; bulk CLI ingestion of trusted local
// files opts out.
func (c *Corpus) SetUnboundedParse(on bool) { c.unboundedParse = on }

// parseOptions assembles the xmlparse options for this corpus.
func (c *Corpus) parseOptions() xmlparse.Options {
	opts := xmlparse.Options{
		ValueBuckets: c.opts.ValueBuckets,
		Attributes:   c.opts.Attributes,
	}
	if c.unboundedParse {
		opts.MaxNodes = xmlparse.Unlimited
		opts.MaxDepth = xmlparse.Unlimited
	}
	return opts
}

// SetWorkers bounds the parallelism of subsequent summary-building
// operations (document fan-out and per-level candidate counting). Zero
// or negative, the default, means GOMAXPROCS; 1 forces sequential
// builds.
func (c *Corpus) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	c.workers = n
}

// Workers returns the configured build parallelism (0 = GOMAXPROCS).
func (c *Corpus) Workers() int { return c.workers }

// BuildTimings returns the per-stage timings of the most recent add, or
// nil if none has run.
func (c *Corpus) BuildTimings() *metrics.BuildTimings { return c.lastBuild.Load() }

// Create initializes a new corpus directory. dir must not already contain
// a corpus. A new corpus is epoch 0 with no snapshot: its first write
// commits epoch 1.
func Create(dir string, opts Options) (*Corpus, error) {
	if opts.K == 0 {
		opts.K = 4
	}
	if _, err := os.Stat(metaPath(dir)); err == nil {
		return nil, fmt.Errorf("corpus: %s already contains a corpus", dir)
	}
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		return nil, err
	}
	c := newCorpus(dir, opts)
	if err := c.writeMeta(); err != nil {
		return nil, err
	}
	c.base = c.emptyBase()
	c.nextN = 1
	c.epochs.Publish(c.base, nil, nil, nil)
	return c, nil
}

// Open loads an existing corpus for reading and writing. The newest
// loadable epoch snapshot is the base; documents it does not count and
// removals it has not folded are re-mined into the delta (crash
// recovery), and fold with the next write or Refreeze.
func Open(dir string) (*Corpus, error) {
	return open(dir, false)
}

// OpenReadOnly loads an existing corpus like Open, but rejects writes
// with ErrReadOnly until EnableIngest — the load path for serving
// replicas. Opening never writes, so a replica can open a directory
// another process is writing.
func OpenReadOnly(dir string) (*Corpus, error) {
	return open(dir, true)
}

func open(dir string, readOnly bool) (*Corpus, error) {
	opts, err := readMeta(metaPath(dir))
	if err != nil {
		return nil, err
	}
	c := newCorpus(dir, opts)
	c.readOnly = readOnly
	if err := c.recover(); err != nil {
		return nil, err
	}
	// Region-index every loaded document once, up front: query execution
	// then never pays an index build on the request path.
	c.indexer.ForAll(c.Trees())
	return c, nil
}

func newCorpus(dir string, opts Options) *Corpus {
	c := &Corpus{
		dir:     dir,
		opts:    opts,
		dict:    labeltree.NewDict(),
		indexer: twigjoin.NewIndexer(),
	}
	c.delta = lattice.NewDelta(opts.K, c.dict)
	c.epochs.SetTwigIndexer(c.indexer)
	return c
}

// emptyBase is the base of a corpus no snapshot covers yet.
func (c *Corpus) emptyBase() *core.Summary {
	return core.FromLattice(lattice.New(c.opts.K, c.dict)).Freeze()
}

// Options returns the corpus configuration.
func (c *Corpus) Options() Options { return c.opts }

// Dict returns the corpus label dictionary (parse queries against it).
func (c *Corpus) Dict() *labeltree.Dict { return c.dict }

// Summary returns the current epoch's summary. Callers that load it once
// per request stay pinned to that epoch for the request's lifetime even
// as later epochs are published.
func (c *Corpus) Summary() *core.Summary { return c.epochs.Current().Summary }

// Docs lists document names in sorted order.
func (c *Corpus) Docs() []string {
	return append([]string{}, c.epochs.Current().Names...)
}

// TwigIndexer implements core.TwigIndexerSource: the corpus-lifetime
// region-index cache query execution runs on.
func (c *Corpus) TwigIndexer() *twigjoin.Indexer { return c.indexer }

// Doc returns a loaded document tree by name.
func (c *Corpus) Doc(name string) (*labeltree.Tree, bool) {
	ep := c.epochs.Current()
	if i, ok := ep.HasDoc(name); ok {
		return ep.Docs[i], true
	}
	return nil, false
}

// Trees implements core.TreeSource: the current epoch's document trees
// in sorted name order (a stable order keeps the document-backed
// methods' estimates deterministic).
func (c *Corpus) Trees() []*labeltree.Tree { return c.epochs.Current().Docs }

// AddXML parses an XML document from r, folds it into the summary, and
// persists both. Adding under an existing name wraps ErrDocExists.
func (c *Corpus) AddXML(name string, r io.Reader) error {
	return c.AddXMLContext(context.Background(), name, r)
}

// AddXMLContext is AddXML with cancellation: the incoming document is
// mined into a private lattice with the corpus's configured worker count
// and lands only on success, so a canceled upload leaves the summary and
// the on-disk state untouched. It is AddXMLBatch with one document.
func (c *Corpus) AddXMLContext(ctx context.Context, name string, r io.Reader) error {
	return c.AddXMLBatch(ctx, []BatchDoc{{Name: name, R: r}})
}

// Remove deletes a document and takes its counts out of the summary as
// a negative increment. Unknown names wrap ErrNoSuchDoc. The document
// file becomes a tombstone that stays in docs/ until the fold that
// commits the removal, so a crash before then re-applies the removal on
// reopen; until that fold, re-adding the name wraps ErrDocExists.
func (c *Corpus) Remove(name string) error {
	if err := c.checkWritable(); err != nil {
		return err
	}
	tree, ok := c.Doc(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchDoc, name)
	}
	inc, err := c.mine(context.Background(), []*labeltree.Tree{tree}, nil)
	if err != nil {
		return err
	}
	st := c.ing.Load()
	over, err := c.applyRemove(st, name, tree, inc)
	if err != nil {
		return err
	}
	return c.settle(st, over, nil)
}

// applyRemove lands a removal under the write lock: the negative
// increment enters the delta, the document file becomes a tombstone,
// and the next epoch no longer lists the document. It reports whether
// the delta crossed a refreeze watermark.
func (c *Corpus) applyRemove(st *ingestState, name string, tree *labeltree.Tree, inc *lattice.Summary) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := c.epochs.Current()
	i, ok := ep.HasDoc(name)
	if !ok || ep.Docs[i] != tree {
		return false, fmt.Errorf("%w: %q", ErrNoSuchDoc, name)
	}
	next, err := c.delta.Retract(inc)
	if err != nil {
		return false, err
	}
	if err := c.unlinkSummary(); err != nil {
		return false, err
	}
	if err := fsx.RenameDurable(c.docPath(name, docExt), c.docPath(name, tombExt)); err != nil {
		return false, err
	}
	names := slices.Delete(slices.Clone(ep.Names), i, i+1)
	docs := slices.Delete(slices.Clone(ep.Docs), i, i+1)
	return c.land(st, next, []change{{name: name, removed: true}}, docs, names), nil
}

// EstimateQuery estimates a twig query's selectivity across the corpus.
func (c *Corpus) EstimateQuery(query string, method core.Method) (float64, error) {
	return c.Summary().EstimateQuery(query, method)
}

// EstimateQueryContext is EstimateQuery with cancellation; see
// core.Summary.EstimateQueryContext for the error contract.
func (c *Corpus) EstimateQueryContext(ctx context.Context, query string, method core.Method) (float64, error) {
	return c.Summary().EstimateQueryContext(ctx, query, method)
}

// ExactCount counts a query's matches exactly by scanning every document.
func (c *Corpus) ExactCount(q labeltree.Pattern) int64 {
	total, _ := c.ExactCountContext(context.Background(), q)
	return total
}

// ExactCountContext is ExactCount with cooperative cancellation: the
// counter polls ctx at bounded intervals, so a deadline interrupts a
// Definition-1 ground-truth scan mid-document instead of after it. A
// query node with more than twigjoin.MaxSiblingGroup same-label children
// wraps twigjoin.ErrSiblingGroup. Counts saturate at math.MaxInt64.
func (c *Corpus) ExactCountContext(ctx context.Context, q labeltree.Pattern) (int64, error) {
	counter, err := twigjoin.NewCounter(twigjoin.MustQuery(q, nil), nil)
	if err != nil {
		return 0, err
	}
	defer counter.Release()
	var total int64
	for _, tree := range c.Trees() {
		st, err := counter.CountContext(ctx, c.indexer.For(tree), nil)
		if err != nil {
			return 0, err
		}
		if total += st.Matches; total < 0 {
			total = math.MaxInt64
		}
	}
	return total, nil
}

// ---- persistence helpers ----

// Document file extensions: a live document and a tombstoned one.
const (
	docExt  = ".tltr"
	tombExt = ".tomb"
)

// summaryFile is the TLAT snapshot kept while it counts every live
// document (see ingest.go).
const summaryFile = "summary.tlat"

func metaPath(dir string) string    { return filepath.Join(dir, "corpus.meta") }
func summaryPath(dir string) string { return filepath.Join(dir, summaryFile) }

func (c *Corpus) docPath(name, ext string) string {
	return filepath.Join(c.dir, "docs", name+ext)
}

// validName rejects names that escape docs/ or could forge a manifest
// line: separators, "..", and control bytes (a newline in a name would
// otherwise write a line of its own into the next epoch manifest).
func validName(name string) error {
	bad := name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..")
	for i := 0; i < len(name) && !bad; i++ {
		bad = name[i] < 0x20 || name[i] == 0x7f
	}
	if bad {
		return fmt.Errorf("corpus: invalid document name %q", name)
	}
	return nil
}

func (c *Corpus) writeMeta() error {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d\nvaluebuckets=%d\nattributes=%v\n",
		c.opts.K, c.opts.ValueBuckets, c.opts.Attributes)
	return fsx.WriteFileAtomic(metaPath(c.dir), func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

func readMeta(path string) (Options, error) {
	f, err := os.Open(path)
	if err != nil {
		return Options{}, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	opts := Options{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return Options{}, fmt.Errorf("corpus: malformed meta line %q", line)
		}
		switch key {
		case "k":
			opts.K, err = strconv.Atoi(val)
		case "valuebuckets":
			opts.ValueBuckets, err = strconv.Atoi(val)
		case "attributes":
			opts.Attributes, err = strconv.ParseBool(val)
		default:
			err = fmt.Errorf("corpus: unknown meta key %q", key)
		}
		if err != nil {
			return Options{}, err
		}
	}
	if err := sc.Err(); err != nil {
		return Options{}, err
	}
	if opts.K < 2 {
		return Options{}, fmt.Errorf("corpus: meta has invalid K=%d", opts.K)
	}
	return opts, nil
}

func (c *Corpus) writeDoc(name string, t *labeltree.Tree) error {
	return fsx.WriteFileAtomic(c.docPath(name, docExt), func(w io.Writer) error {
		_, err := labeltree.WriteTree(w, t)
		return err
	})
}

func (c *Corpus) readDoc(file string) (*labeltree.Tree, error) {
	f, err := os.Open(filepath.Join(c.dir, "docs", file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return labeltree.ReadTree(f, c.dict)
}

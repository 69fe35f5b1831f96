package corpus

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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
	"treelattice/internal/resilience"
)

// This file is the corpus write path and its crash-safe protocol. A
// change — a batch of added documents or one removal — lands in a small
// copy-on-write delta under the write lock and is published at once as
// a new RCU epoch serving (base + delta). A fold then cuts the delta,
// folds it into a clone of the base lattice, and commits a new snapshot:
// inline before the write returns, or from the background refreezer once
// EnableIngest is on.
//
// On-disk protocol (all files written with fsx.WriteFileAtomic):
//
//	docs/<name>.tltr     every live document, folded or not
//	docs/<name>.tomb     a removed document whose removal is not folded yet
//	epoch-NNNNNN.tlat    numbered base snapshots (or .tlcz when compressed)
//	epoch-NNNNNN.meta    numbered manifests: snapshot=<file> + doc=<name> lines
//	summary.tlat         present only while it counts exactly the documents in docs/
//
// The manifest is the commit point. A fold writes the new snapshot
// first, then the manifest naming it together with every document it
// counts; only after the manifest rename does it touch in-memory state,
// delete the folded removals' tombstones, and prune older epoch files.
// Reopening loads the newest manifest whose snapshot is readable: live
// documents it does not list are re-mined into the delta as adds, and
// tombstones of documents it lists are re-mined as removals. A crash at
// any point therefore loses no acknowledged change and never
// double-counts.
//
// summary.tlat keeps its promise in both directions: a TLAT fold that
// leaves nothing unfolded links it to the new snapshot, and a change
// removes it before touching docs/. Without manifests — a pre-epoch
// corpus, or one whose manifests were lost — it is therefore the base,
// counting every live document in docs/ (and the first change re-homes
// it as epoch 0 under manifest 0); with neither, the base is empty and
// every document is unfolded. Either way tombstones are leftovers.

// ErrIngestBackpressure reports an add rejected because the delta hit
// its hard size limit before the refreezer caught up. The serving layer
// maps it to 429 with a Retry-After; the client should back off and
// resubmit.
var ErrIngestBackpressure = errors.New("corpus: ingest backpressure, delta over hard limit")

// IngestOptions configures EnableIngest.
type IngestOptions struct {
	// RefreezeInterval is the cadence of timer-driven refreezes. Zero or
	// negative disables the timer: refreezes run only when the delta
	// crosses a watermark (or on DisableIngest).
	RefreezeInterval time.Duration
	// MaxDeltaBytes / MaxDeltaDocs / MaxDeltaAge are the soft watermarks:
	// crossing any of them kicks the refreezer without blocking the add.
	// Defaults: 4 MiB, 256 documents, 5 minutes.
	MaxDeltaBytes int
	MaxDeltaDocs  int
	MaxDeltaAge   time.Duration
	// HardDeltaBytes is the backpressure limit: adds that would grow the
	// delta past it fail with ErrIngestBackpressure until a refreeze
	// drains it. Default 4 × MaxDeltaBytes.
	HardDeltaBytes int
	// Compress writes refrozen snapshots in the TLCZ form instead of TLAT.
	Compress bool
	// RefreezeHook, when non-nil, runs after the snapshot write and
	// before the manifest commit — the fault-injection point: an error
	// here aborts the refreeze (no state changes) and the attempt retries
	// with jittered backoff.
	RefreezeHook func(ctx context.Context) error
	// BackoffBase / BackoffMax / BackoffSeed shape the retry schedule for
	// failed refreezes (see resilience.Backoff; zero values take its
	// defaults, seed 0 is time-seeded).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	BackoffSeed int64
	// Logf, when non-nil, receives refreeze failure diagnostics.
	Logf func(format string, args ...any)
}

// ingestState is the background refreezer EnableIngest starts: its
// configuration, lifecycle, and counters.
type ingestState struct {
	opts IngestOptions
	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	refreezeAttempts atomic.Uint64
	refreezeFailures atomic.Uint64
	refreezes        atomic.Uint64
	lastRefreezeMS   atomic.Int64
	backpressured    atomic.Uint64
}

// Ingesting reports whether the background refreezer is enabled. Safe
// for concurrent use.
func (c *Corpus) Ingesting() bool { return c.ing.Load() != nil }

// IngestStats snapshots the ingest pipeline's observability counters.
// All zeros when ingest is not enabled.
func (c *Corpus) IngestStats() core.IngestStats {
	st := c.ing.Load()
	if st == nil {
		return core.IngestStats{}
	}
	c.mu.Lock()
	docs, size := len(c.pending), c.delta.SizeBytes()
	c.mu.Unlock()
	return core.IngestStats{
		Epoch:            c.epochs.Current().ID,
		DeltaDocs:        docs,
		DeltaBytes:       size,
		RefreezeAttempts: st.refreezeAttempts.Load(),
		RefreezeFailures: st.refreezeFailures.Load(),
		Refreezes:        st.refreezes.Load(),
		LastRefreezeMS:   st.lastRefreezeMS.Load(),
		Backpressured:    st.backpressured.Load(),
	}
}

// EnableIngest moves folds off the write path: subsequent writes return
// once their change is durable in docs/ and published in a new epoch,
// and a background refreezer folds the delta into snapshots on a timer
// or when a watermark is crossed. It also opens a read-only corpus to
// writes.
func (c *Corpus) EnableIngest(opts IngestOptions) error {
	if opts.MaxDeltaBytes <= 0 {
		opts.MaxDeltaBytes = 4 << 20
	}
	if opts.MaxDeltaDocs <= 0 {
		opts.MaxDeltaDocs = 256
	}
	if opts.MaxDeltaAge <= 0 {
		opts.MaxDeltaAge = 5 * time.Minute
	}
	if opts.HardDeltaBytes <= 0 {
		opts.HardDeltaBytes = 4 * opts.MaxDeltaBytes
	}
	st := &ingestState{
		opts: opts,
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	if !c.ing.CompareAndSwap(nil, st) {
		return errors.New("corpus: ingest already enabled")
	}
	st.wg.Add(1)
	go c.refreezeLoop(st)
	return nil
}

// DisableIngest stops the refreezer and folds any remaining delta;
// later writes fold inline again (a read-only corpus turns read-only
// again). Must not run concurrently with writers (it is a shutdown
// operation). A failed final fold is returned but not fatal: the
// unfolded changes are on disk and the manifest protocol recovers them
// on the next open.
func (c *Corpus) DisableIngest() error {
	st := c.ing.Load()
	if st == nil {
		return nil
	}
	close(st.done)
	st.wg.Wait()
	err := c.fold(context.Background(), st, nil)
	c.ing.Store(nil)
	return err
}

// Refreeze folds the current delta into a new durable snapshot now: the
// background refreezer's work on demand, and the way to fold changes a
// crash left unfolded on a corpus that is not ingesting.
func (c *Corpus) Refreeze(ctx context.Context) error {
	if err := c.checkWritable(); err != nil {
		return err
	}
	return c.fold(ctx, c.ing.Load(), nil)
}

// refreezeLoop is the background refreezer: it waits for a timer tick
// or a watermark kick, then folds, retrying failures with jittered
// exponential backoff until success or shutdown.
func (c *Corpus) refreezeLoop(st *ingestState) {
	defer st.wg.Done()
	var tick <-chan time.Time
	if st.opts.RefreezeInterval > 0 {
		t := time.NewTicker(st.opts.RefreezeInterval)
		defer t.Stop()
		tick = t.C
	}
	bo := &resilience.Backoff{Base: st.opts.BackoffBase, Max: st.opts.BackoffMax, Seed: st.opts.BackoffSeed}
	for {
		select {
		case <-st.done:
			return
		case <-tick:
		case <-st.kick:
		}
		for {
			err := c.fold(context.Background(), st, nil)
			if err == nil {
				bo.Reset()
				break
			}
			d := bo.Next()
			if st.opts.Logf != nil {
				st.opts.Logf("corpus: refreeze failed (attempt %d, retrying in %v): %v", bo.Attempts(), d, err)
			}
			select {
			case <-st.done:
				return
			case <-time.After(d):
			}
		}
	}
}

func kickNonBlocking(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// ---- landing a change ----

// checkWritable rejects writes on a read-only corpus that is not
// ingesting.
func (c *Corpus) checkWritable() error {
	if c.readOnly && !c.Ingesting() {
		return ErrReadOnly
	}
	return nil
}

// taken reports whether name is a live document or one whose removal is
// not folded yet. Callers hold mu.
func (c *Corpus) taken(name string) bool {
	if _, ok := c.epochs.Current().HasDoc(name); ok {
		return true
	}
	for _, ch := range c.pending {
		if ch.removed && ch.name == name {
			return true
		}
	}
	return false
}

// admit applies ingest backpressure to adds: while the delta is over
// the hard size limit, adds are rejected and the refreezer is kicked.
// Removals are never held back. It gates on the delta as it stands, not
// delta+change: an empty delta always accepts, so backpressure can never
// wedge ingest shut. Callers hold mu.
func (c *Corpus) admit(st *ingestState) error {
	if st == nil || len(c.pending) == 0 {
		return nil
	}
	if sz := c.delta.SizeBytes(); sz >= st.opts.HardDeltaBytes {
		st.backpressured.Add(1)
		kickNonBlocking(st.kick)
		return fmt.Errorf("%w (%d delta bytes, limit %d)", ErrIngestBackpressure, sz, st.opts.HardDeltaBytes)
	}
	return nil
}

// unlinkSummary takes summary.tlat away before a change touches docs/,
// since the file must count exactly the documents there. A legacy
// summary.tlat that no manifest names is the base itself: it is first
// re-homed as epoch 0 under manifest 0. Callers hold mu.
func (c *Corpus) unlinkSummary() error {
	if !c.summaryLinked {
		return nil
	}
	if c.legacy {
		const snap = "epoch-000000.tlat"
		if err := linkFile(c.dir, summaryFile, snap); err != nil {
			return err
		}
		if err := writeManifest(c.dir, 0, snap, c.folded); err != nil {
			return err
		}
		c.legacy = false
	}
	if err := fsx.RemoveDurable(summaryPath(c.dir)); err != nil {
		return err
	}
	c.summaryLinked = false
	return nil
}

// linkFile makes to a hard link of from, both in dir, replacing any
// existing to through a rename.
func linkFile(dir, from, to string) error {
	tmp := filepath.Join(dir, ".tmp-link-"+to)
	os.Remove(tmp)
	if err := os.Link(filepath.Join(dir, from), tmp); err != nil {
		return err
	}
	return fsx.RenameDurable(tmp, filepath.Join(dir, to))
}

// land installs the successor delta, logs the changes, and publishes
// the next epoch over docs and names. It reports whether the delta
// crossed a refreeze watermark. Callers hold mu.
func (c *Corpus) land(st *ingestState, next *lattice.Delta, changes []change, docs []*labeltree.Tree, names []string) bool {
	c.delta = next
	c.pending = append(c.pending, changes...)
	if c.deltaSince.IsZero() {
		c.deltaSince = time.Now()
	}
	c.epochs.Publish(c.base, c.delta, docs, names)
	return st != nil && (next.SizeBytes() >= st.opts.MaxDeltaBytes ||
		len(c.pending) >= st.opts.MaxDeltaDocs ||
		time.Since(c.deltaSince) >= st.opts.MaxDeltaAge)
}

// settle finishes a landed change. Without ingest it folds inline, so
// the change is in a committed snapshot when the write returns (if that
// fold fails, the change stays published and durable in docs/, and the
// next write or Refreeze folds it). With ingest it kicks the refreezer
// once a watermark is crossed.
func (c *Corpus) settle(st *ingestState, over bool, timings *metrics.BuildTimings) error {
	if st == nil {
		return c.fold(context.Background(), nil, timings)
	}
	if over {
		kickNonBlocking(st.kick)
	}
	return nil
}

// ---- folding ----

// fold runs one refreeze attempt over the whole current delta. st, when
// not nil, supplies the ingest configuration and counts the attempt.
func (c *Corpus) fold(ctx context.Context, st *ingestState, timings *metrics.BuildTimings) error {
	c.foldMu.Lock()
	defer c.foldMu.Unlock()
	c.mu.Lock()
	cut := c.delta
	ops := append([]change(nil), c.pending...)
	c.mu.Unlock()
	if len(ops) == 0 && cut.Empty() {
		return nil
	}
	if st == nil {
		return c.commit(ctx, st, cut, ops, timings)
	}
	st.refreezeAttempts.Add(1)
	start := time.Now()
	if err := c.commit(ctx, st, cut, ops, timings); err != nil {
		st.refreezeFailures.Add(1)
		return err
	}
	st.refreezes.Add(1)
	st.lastRefreezeMS.Store(time.Since(start).Milliseconds())
	return nil
}

// commit folds cut into a clone of the base lattice, writes the snapshot
// and then the manifest (the commit point), and only then swaps the
// base, trims the delta, and publishes the next epoch. Failing before
// the manifest rename changes nothing, in memory or on disk, that the
// next attempt cannot redo. Callers hold foldMu.
func (c *Corpus) commit(ctx context.Context, st *ingestState, cut *lattice.Delta, ops []change, timings *metrics.BuildTimings) error {
	stop := timings.Start("merge")
	if c.foldLat == nil {
		lat, err := c.base.Materialize()
		if err != nil {
			stop()
			return fmt.Errorf("corpus: folding: %w", err)
		}
		c.foldLat = lat
	}
	next := c.foldLat.Clone()
	err := cut.FoldInto(next)
	stop()
	if err != nil {
		return fmt.Errorf("corpus: folding: %w", err)
	}
	stop = timings.Start("persist")
	defer stop()
	compress := st != nil && st.opts.Compress
	n := c.nextN
	snap := fmt.Sprintf("epoch-%06d.tlat", n)
	if compress {
		snap = fmt.Sprintf("epoch-%06d.tlcz", n)
	}
	err = fsx.WriteFileAtomic(filepath.Join(c.dir, snap), func(w io.Writer) error {
		if compress {
			_, err := lattice.WriteCompressed(w, next)
			return err
		}
		_, err := next.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	if st != nil && st.opts.RefreezeHook != nil {
		if err := st.opts.RefreezeHook(ctx); err != nil {
			return err
		}
	}
	folded := foldNames(c.folded, ops)
	if err := writeManifest(c.dir, n, snap, folded); err != nil {
		return err
	}

	// Committed. Swap the serving state; from here failures must not
	// leave the in-memory view disagreeing with the manifest.
	base := core.FromLattice(next).Freeze()
	c.mu.Lock()
	rest, err := c.delta.Subtract(cut)
	if err != nil {
		// Structurally impossible (the cut is a prefix of the delta);
		// keep serving the old, still-correct view and roll the
		// manifest back so disk agrees with memory.
		c.mu.Unlock()
		os.Remove(filepath.Join(c.dir, manifestName(n)))
		return err
	}
	c.base, c.folded, c.nextN, c.legacy = base, folded, n+1, false
	c.delta = rest
	c.pending = append([]change(nil), c.pending[len(ops):]...)
	c.deltaSince = time.Time{}
	if len(c.pending) > 0 {
		c.deltaSince = time.Now()
	} else if !compress && linkFile(c.dir, snap, summaryFile) == nil {
		c.summaryLinked = true
	}
	cur := c.epochs.Current()
	c.epochs.Publish(c.base, c.delta, cur.Docs, cur.Names)
	// Drop the indexes of documents the epoch no longer lists. A request
	// pinned to an older epoch may rebuild one; the next fold drops it.
	c.indexer.Retain(cur.Docs)
	c.mu.Unlock()
	c.foldLat = next

	for _, ch := range ops {
		if ch.removed {
			os.Remove(c.docPath(ch.name, tombExt))
		}
	}
	pruneEpochFiles(c.dir, n)
	return nil
}

// foldNames returns the sorted document set a snapshot counts once ops
// are folded into one that counted folded.
func foldNames(folded []string, ops []change) []string {
	set := make(map[string]bool, len(folded)+len(ops))
	for _, n := range folded {
		set[n] = true
	}
	for _, ch := range ops {
		if ch.removed {
			delete(set, ch.name)
		} else {
			set[ch.name] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---- recovery ----

// recover loads the corpus from disk: the base snapshot (see the
// protocol above), the live documents, and the changes the base does
// not count yet, re-mined into the delta. Tombstones of documents the
// base does not count are leftovers of changes that never need folding;
// they stay pending so the next fold deletes them.
func (c *Corpus) recover() error {
	entries, err := os.ReadDir(filepath.Join(c.dir, "docs"))
	if err != nil {
		return err
	}
	var live, tombs []string // sorted: ReadDir returns entries by file name
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), docExt); ok {
			live = append(live, name)
		} else if name, ok := strings.CutSuffix(e.Name(), tombExt); ok {
			tombs = append(tombs, name)
		}
	}
	if err := c.loadBase(live); err != nil {
		return err
	}
	counted := make(map[string]bool, len(c.folded))
	for _, n := range c.folded {
		counted[n] = true
	}

	trees := make([]*labeltree.Tree, len(live))
	var addTrees []*labeltree.Tree
	var adds, removals, stale []change
	for i, name := range live {
		if trees[i], err = c.readDoc(name + docExt); err != nil {
			return err
		}
		if !counted[name] {
			addTrees = append(addTrees, trees[i])
			adds = append(adds, change{name: name})
		}
		delete(counted, name)
	}
	var removedTrees []*labeltree.Tree
	for _, name := range tombs {
		if !counted[name] {
			stale = append(stale, change{name: name, removed: true})
			continue
		}
		t, err := c.readDoc(name + tombExt)
		if err != nil {
			return err
		}
		removedTrees = append(removedTrees, t)
		removals = append(removals, change{name: name, removed: true})
		delete(counted, name)
	}
	if len(counted) > 0 {
		return fmt.Errorf("corpus: the snapshot counts %d documents docs/ holds no copy of", len(counted))
	}

	ctx := context.Background()
	if len(addTrees) > 0 {
		inc, err := c.mine(ctx, addTrees, nil)
		if err == nil {
			c.delta, err = c.delta.Apply(inc)
		}
		if err != nil {
			return fmt.Errorf("corpus: re-mining unfolded documents: %w", err)
		}
	}
	if len(removedTrees) > 0 {
		inc, err := c.mine(ctx, removedTrees, nil)
		if err == nil {
			c.delta, err = c.delta.Retract(inc)
		}
		if err != nil {
			return fmt.Errorf("corpus: re-mining unfolded removals: %w", err)
		}
	}
	// Stale tombstones first: a name may be live again after its folded
	// removal, and the fold must leave it counted.
	c.pending = append(append(stale, adds...), removals...)
	if len(c.pending) > 0 {
		c.deltaSince = time.Now()
	}
	c.epochs.Publish(c.base, c.delta, trees, live)
	return nil
}

// loadBase loads the snapshot a reopened corpus starts from and the
// document set it counts: the newest manifest whose snapshot loads, else
// summary.tlat counting every live document, else an empty base.
func (c *Corpus) loadBase(live []string) error {
	mans, err := scanManifests(c.dir)
	if err != nil {
		return err
	}
	c.nextN = 1
	_, err = os.Stat(summaryPath(c.dir))
	c.summaryLinked = err == nil
	if len(mans) > 0 {
		// Number past the newest manifest even when it does not load, so
		// the next commit supersedes it.
		c.nextN = mans[0].n + 1
		var lastErr error
		for _, m := range mans {
			base, err := core.OpenSnapshotFile(filepath.Join(c.dir, m.snapshot), c.dict)
			if err != nil {
				lastErr = err
				continue
			}
			c.base, c.folded = base, m.docs
			return nil
		}
		return fmt.Errorf("corpus: no loadable epoch snapshot: %w", lastErr)
	}
	if !c.summaryLinked {
		c.base = c.emptyBase()
		return nil
	}
	base, err := core.OpenSnapshotFile(summaryPath(c.dir), c.dict)
	if err != nil {
		return fmt.Errorf("corpus: loading summary: %w", err)
	}
	c.base, c.legacy, c.folded = base, true, live
	return nil
}

// ---- manifest protocol ----

// ingestManifest is one parsed epoch-NNNNNN.meta file.
type ingestManifest struct {
	n        uint64
	snapshot string
	docs     []string
}

func manifestName(n uint64) string { return fmt.Sprintf("epoch-%06d.meta", n) }

// writeManifest durably records that snapshot covers exactly docs. The
// atomic rename is the fold's commit point.
func writeManifest(dir string, n uint64, snapshot string, docs []string) error {
	return fsx.WriteFileAtomic(filepath.Join(dir, manifestName(n)), func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		fmt.Fprintf(bw, "snapshot=%s\n", snapshot)
		for _, d := range docs {
			fmt.Fprintf(bw, "doc=%s\n", d)
		}
		return bw.Flush()
	})
}

// parseManifestIndex extracts N from an epoch-NNNNNN.meta (or snapshot)
// file name; ok is false for anything else.
func parseManifestIndex(name, suffix string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, "epoch-")
	if !found {
		return 0, false
	}
	num, found := strings.CutSuffix(rest, suffix)
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// scanManifests parses every readable epoch manifest in dir, sorted
// newest-first. Malformed manifests (a crash can leave none, never a
// half-written one, but defend anyway) are skipped.
func scanManifests(dir string) ([]ingestManifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []ingestManifest
	for _, e := range entries {
		n, ok := parseManifestIndex(e.Name(), ".meta")
		if !ok {
			continue
		}
		m, err := readManifest(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		m.n = n
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].n > out[j].n })
	return out, nil
}

func readManifest(path string) (ingestManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return ingestManifest{}, err
	}
	defer f.Close()
	var m ingestManifest
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return ingestManifest{}, fmt.Errorf("corpus: malformed manifest line %q", line)
		}
		switch key {
		case "snapshot":
			m.snapshot = val
		case "doc":
			m.docs = append(m.docs, val)
		default:
			return ingestManifest{}, fmt.Errorf("corpus: unknown manifest key %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return ingestManifest{}, err
	}
	if m.snapshot == "" {
		return ingestManifest{}, errors.New("corpus: manifest missing snapshot")
	}
	return m, nil
}

// pruneEpochFiles removes, best-effort, the epoch manifests and
// snapshots numbered below keep: the manifest numbered keep supersedes
// them all.
func pruneEpochFiles(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		for _, suffix := range []string{".meta", ".tlat", ".tlcz"} {
			if n, ok := parseManifestIndex(e.Name(), suffix); ok && n < keep {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
}

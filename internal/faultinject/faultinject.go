// Package faultinject wraps the system's storage and corpus surfaces with
// injectable latency, errors, and panics, so resilience tests can push the
// serving stack into the failure modes production will eventually find on
// its own: slow stores that blow deadline budgets, erroring backends, and
// handlers that panic mid-request.
//
// Fault schedules are deterministic: errors and panics fire on a fixed
// cadence of operation indices (every Nth operation), and jittered latency
// draws from a seeded generator, so a failing resilience test replays
// exactly. The package is test infrastructure but lives outside _test
// files so cmd-level harnesses and other packages' tests can import it.
package faultinject

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/metrics"
)

// ErrInjected is the error returned by operations the schedule marks as
// failing.
var ErrInjected = errors.New("faultinject: injected error")

// PanicValue is what injected panics carry, so recovery layers (and tests
// asserting on recovered values) can recognize them.
const PanicValue = "faultinject: injected panic"

// Options configures an Injector.
type Options struct {
	// Latency is added to every operation. With a context-carrying
	// operation the sleep is cancellable; otherwise it is a plain sleep.
	Latency time.Duration
	// LatencyJitter adds a uniformly distributed extra [0, Jitter) per
	// operation, drawn from the seeded generator.
	LatencyJitter time.Duration
	// ErrorEvery makes every Nth operation return ErrInjected (0 = never).
	ErrorEvery int
	// PanicEvery makes every Nth operation panic with PanicValue
	// (0 = never). Panics take precedence over errors when both fire.
	PanicEvery int
	// Seed seeds the jitter generator.
	Seed int64
}

// Injector decides, per operation, which fault to inject. Safe for
// concurrent use.
type Injector struct {
	opts   Options
	ops    atomic.Uint64
	errs   atomic.Uint64
	panics atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds an injector.
func New(opts Options) *Injector {
	return &Injector{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Op applies one operation's faults: sleeps the configured latency
// (cancellably when ctx is non-nil), then panics or errors if this
// operation's index is on the schedule. Returns ctx.Err() when the sleep
// was cut short.
func (i *Injector) Op(ctx context.Context) error {
	n := i.ops.Add(1)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if d := i.delay(); d > 0 {
		if ctx != nil {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		} else {
			time.Sleep(d)
		}
	}
	if e := i.opts.PanicEvery; e > 0 && n%uint64(e) == 0 {
		i.panics.Add(1)
		panic(PanicValue)
	}
	if e := i.opts.ErrorEvery; e > 0 && n%uint64(e) == 0 {
		i.errs.Add(1)
		return ErrInjected
	}
	return nil
}

func (i *Injector) delay() time.Duration {
	d := i.opts.Latency
	if j := i.opts.LatencyJitter; j > 0 {
		i.mu.Lock()
		d += time.Duration(i.rng.Int63n(int64(j)))
		i.mu.Unlock()
	}
	return d
}

// Stats reports how many operations ran and how many faults fired.
func (i *Injector) Stats() (ops, errs, panics uint64) {
	return i.ops.Load(), i.errs.Load(), i.panics.Load()
}

// Store wraps an estimate.Store with the injector: every CountKey lookup
// — the decomposition recursion's hot call — pays the injected latency and
// may panic. (Store methods cannot return errors, so ErrorEvery does not
// apply here.) Use it to make estimates arbitrarily slow relative to a
// deadline budget without inflating the test corpus.
type Store struct {
	inner estimate.Store
	inj   *Injector
}

var _ estimate.Store = (*Store)(nil)

// WrapStore wraps inner with inj.
func WrapStore(inner estimate.Store, inj *Injector) *Store {
	return &Store{inner: inner, inj: inj}
}

// Count implements estimate.Store.
func (s *Store) Count(p labeltree.Pattern) (int64, bool) {
	_ = s.inj.Op(nil)
	return s.inner.Count(p)
}

// CountKey implements estimate.Store.
func (s *Store) CountKey(key labeltree.Key) (int64, bool) {
	_ = s.inj.Op(nil)
	return s.inner.CountKey(key)
}

// K implements estimate.Store.
func (s *Store) K() int { return s.inner.K() }

// Pruned implements estimate.Store.
func (s *Store) Pruned() bool { return s.inner.Pruned() }

// CorpusBackend is the corpus surface the serving layer consumes,
// restated structurally so this package does not import internal/serve
// (whose tests import this package). *corpus.Corpus satisfies it, as does
// serve.Backend.
type CorpusBackend interface {
	Summary() *core.Summary
	Docs() []string
	Workers() int
	SetWorkers(n int)
	BuildTimings() *metrics.BuildTimings
	ExactCountContext(ctx context.Context, q labeltree.Pattern) (int64, error)
	AddXMLContext(ctx context.Context, name string, r io.Reader) error
	Remove(name string) error
	IngestStats() core.IngestStats
}

// Corpus wraps a corpus backend with the injector on its expensive
// operations: exact counting (the Definition-1 scan /v1/exact runs),
// document ingestion, and removal. Cheap accessors pass through
// untouched.
type Corpus struct {
	inner CorpusBackend
	inj   *Injector
}

var _ CorpusBackend = (*Corpus)(nil)

// WrapCorpus wraps inner with inj.
func WrapCorpus(inner CorpusBackend, inj *Injector) *Corpus {
	return &Corpus{inner: inner, inj: inj}
}

// Summary passes through.
func (c *Corpus) Summary() *core.Summary { return c.inner.Summary() }

// Docs passes through.
func (c *Corpus) Docs() []string { return c.inner.Docs() }

// Workers passes through.
func (c *Corpus) Workers() int { return c.inner.Workers() }

// SetWorkers passes through.
func (c *Corpus) SetWorkers(n int) { c.inner.SetWorkers(n) }

// BuildTimings passes through.
func (c *Corpus) BuildTimings() *metrics.BuildTimings { return c.inner.BuildTimings() }

// ExactCountContext injects before delegating.
func (c *Corpus) ExactCountContext(ctx context.Context, q labeltree.Pattern) (int64, error) {
	if err := c.inj.Op(ctx); err != nil {
		return 0, err
	}
	return c.inner.ExactCountContext(ctx, q)
}

// AddXMLContext injects before delegating.
func (c *Corpus) AddXMLContext(ctx context.Context, name string, r io.Reader) error {
	if err := c.inj.Op(ctx); err != nil {
		return err
	}
	return c.inner.AddXMLContext(ctx, name, r)
}

// Remove injects before delegating.
func (c *Corpus) Remove(name string) error {
	if err := c.inj.Op(nil); err != nil {
		return err
	}
	return c.inner.Remove(name)
}

// IngestStats passes through.
func (c *Corpus) IngestStats() core.IngestStats { return c.inner.IngestStats() }

package serve

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treelattice/internal/labeltree"
)

// Fault injection for the resilience tests: a corpus backend wrapped with
// injectable latency, errors, and panics pushes the serving stack into
// the failure modes production will eventually find on its own: slow
// scans that blow deadline budgets, erroring backends, and handlers that
// panic mid-request.
//
// Fault schedules are deterministic: errors and panics fire on a fixed
// cadence of operation indices (every Nth operation), and jittered
// latency draws from a seeded generator, so a failing resilience test
// replays exactly.

// errInjected is the error returned by operations the schedule marks as
// failing.
var errInjected = errors.New("faultinject: injected error")

// injectedPanic is what injected panics carry, so tests asserting on
// recovered values can recognize them.
const injectedPanic = "faultinject: injected panic"

// faultOptions configures a faultInjector.
type faultOptions struct {
	// Latency is added to every operation; the sleep ends early when the
	// operation's context is done.
	Latency time.Duration
	// LatencyJitter adds a uniformly distributed extra [0, Jitter) per
	// operation, drawn from the seeded generator.
	LatencyJitter time.Duration
	// ErrorEvery makes every Nth operation return errInjected (0 = never).
	ErrorEvery int
	// PanicEvery makes every Nth operation panic with injectedPanic
	// (0 = never). Panics take precedence over errors when both fire.
	PanicEvery int
	// Seed seeds the jitter generator.
	Seed int64
}

// faultInjector decides, per operation, which fault to inject. Safe for
// concurrent use.
type faultInjector struct {
	opts   faultOptions
	ops    atomic.Uint64
	errs   atomic.Uint64
	panics atomic.Uint64

	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultInjector(opts faultOptions) *faultInjector {
	return &faultInjector{opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Op applies one operation's faults: sleeps the configured latency
// (cancellably), then panics or errors if this operation's index is on
// the schedule. Returns ctx.Err() when the sleep was cut short.
func (i *faultInjector) Op(ctx context.Context) error {
	n := i.ops.Add(1)
	if err := ctx.Err(); err != nil {
		return err
	}
	if d := i.delay(); d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
	if e := i.opts.PanicEvery; e > 0 && n%uint64(e) == 0 {
		i.panics.Add(1)
		panic(injectedPanic)
	}
	if e := i.opts.ErrorEvery; e > 0 && n%uint64(e) == 0 {
		i.errs.Add(1)
		return errInjected
	}
	return nil
}

func (i *faultInjector) delay() time.Duration {
	d := i.opts.Latency
	if j := i.opts.LatencyJitter; j > 0 {
		i.mu.Lock()
		d += time.Duration(i.rng.Int63n(int64(j)))
		i.mu.Unlock()
	}
	return d
}

// Stats reports how many operations ran and how many faults fired.
func (i *faultInjector) Stats() (ops, errs, panics uint64) {
	return i.ops.Load(), i.errs.Load(), i.panics.Load()
}

// faultCorpus wraps a backend with the injector on its expensive
// operations: exact counting (the Definition-1 scan /v1/exact runs),
// document ingestion, and removal. Every other method is the embedded
// backend's.
type faultCorpus struct {
	Backend
	inj *faultInjector
}

func (c *faultCorpus) ExactCountContext(ctx context.Context, q labeltree.Pattern) (int64, error) {
	if err := c.inj.Op(ctx); err != nil {
		return 0, err
	}
	return c.Backend.ExactCountContext(ctx, q)
}

func (c *faultCorpus) AddXMLContext(ctx context.Context, name string, r io.Reader) error {
	if err := c.inj.Op(ctx); err != nil {
		return err
	}
	return c.Backend.AddXMLContext(ctx, name, r)
}

func (c *faultCorpus) Remove(name string) error {
	if err := c.inj.Op(context.Background()); err != nil {
		return err
	}
	return c.Backend.Remove(name)
}

// TestErrorSchedule: errors fire on exactly the scheduled operation
// indices, deterministically.
func TestErrorSchedule(t *testing.T) {
	inj := newFaultInjector(faultOptions{ErrorEvery: 3})
	var got []int
	for i := 1; i <= 9; i++ {
		if err := inj.Op(context.Background()); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("op %d: %v", i, err)
			}
			got = append(got, i)
		}
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 6 || got[2] != 9 {
		t.Fatalf("errors fired at %v, want [3 6 9]", got)
	}
	ops, errs, panics := inj.Stats()
	if ops != 9 || errs != 3 || panics != 0 {
		t.Fatalf("stats = %d/%d/%d, want 9/3/0", ops, errs, panics)
	}
}

// TestPanicSchedule: the scheduled panic fires with injectedPanic and
// takes precedence over a same-index error.
func TestPanicSchedule(t *testing.T) {
	inj := newFaultInjector(faultOptions{PanicEvery: 2, ErrorEvery: 2})
	if err := inj.Op(context.Background()); err != nil {
		t.Fatalf("op 1: %v", err)
	}
	func() {
		defer func() {
			if r := recover(); r != injectedPanic {
				t.Fatalf("recovered %v, want %q", r, injectedPanic)
			}
		}()
		_ = inj.Op(context.Background())
		t.Fatal("op 2 did not panic")
	}()
	if _, errs, panics := inj.Stats(); errs != 0 || panics != 1 {
		t.Fatalf("errs/panics = %d/%d, want 0/1", errs, panics)
	}
}

// TestLatencyCancellable: a context deadline cuts an injected sleep short
// and returns the context error.
func TestLatencyCancellable(t *testing.T) {
	inj := newFaultInjector(faultOptions{Latency: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := inj.Op(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
}

// TestExpiredContextFailsFast: an already-done context short-circuits
// before any injected latency.
func TestExpiredContextFailsFast(t *testing.T) {
	inj := newFaultInjector(faultOptions{Latency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := inj.Op(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("fail-fast took %v", d)
	}
}

// TestJitterDeterministic: two injectors with the same seed draw the same
// jitter sequence.
func TestJitterDeterministic(t *testing.T) {
	a := newFaultInjector(faultOptions{LatencyJitter: time.Hour, Seed: 42})
	b := newFaultInjector(faultOptions{LatencyJitter: time.Hour, Seed: 42})
	for i := 0; i < 16; i++ {
		if da, db := a.delay(), b.delay(); da != db {
			t.Fatalf("draw %d: %v != %v", i, da, db)
		}
	}
}

// Package resilience keeps the serving path alive under hostile
// conditions: overload, slow queries, and panicking handlers. It supplies
// the three primitives the HTTP layer composes per endpoint:
//
//   - Limiter: a concurrency-limited admission controller. A fixed number
//     of requests run at once; a bounded queue absorbs short bursts; and
//     everything beyond that is shed immediately, so the server's response
//     to overload is fast 429s instead of unbounded queueing and collapse.
//   - Deadline: middleware attaching a per-endpoint context budget, so a
//     single expensive query (the paper's Definition-1 exact count, a full
//     document scan) cannot hold a connection forever. The kernels check
//     their context cooperatively; see internal/twigjoin and
//     internal/estimate.
//   - Recover: middleware converting a handler panic into a 500 JSON
//     envelope plus a counter, isolating the fault to the one request
//     instead of killing the process.
//
// All counters are internal/obs metrics, so shedding and panic rates are
// visible in /v1/metrics next to the latency histograms they explain.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"treelattice/internal/obs"
)

// ErrShed reports that admission control rejected a request: the limiter
// was at capacity and the wait queue was full (or the queue wait expired).
var ErrShed = errors.New("resilience: request shed by admission control")

// LimiterOptions configures a Limiter.
type LimiterOptions struct {
	// Limit is the number of requests allowed to run concurrently.
	// Must be positive.
	Limit int
	// Queue bounds how many requests may wait for a slot; arrivals beyond
	// Limit+Queue are shed immediately. Default 2×Limit.
	Queue int
	// QueueWait bounds how long a queued request waits before being shed.
	// Default 100ms.
	QueueWait time.Duration
}

// Limiter is a concurrency-limited admission controller with a bounded
// wait queue. Safe for concurrent use.
type Limiter struct {
	sem   chan struct{}
	queue chan struct{}
	wait  time.Duration

	admitted, queued, shed *obs.Counter
	depth                  *obs.Gauge
}

// NewLimiter builds a limiter. Counters are private until Instrument
// points them at a registry.
func NewLimiter(opts LimiterOptions) *Limiter {
	if opts.Limit <= 0 {
		opts.Limit = 1
	}
	if opts.Queue <= 0 {
		opts.Queue = 2 * opts.Limit
	}
	if opts.QueueWait <= 0 {
		opts.QueueWait = 100 * time.Millisecond
	}
	return &Limiter{
		sem:      make(chan struct{}, opts.Limit),
		queue:    make(chan struct{}, opts.Queue),
		wait:     opts.QueueWait,
		admitted: &obs.Counter{},
		queued:   &obs.Counter{},
		shed:     &obs.Counter{},
		depth:    &obs.Gauge{},
	}
}

// Instrument registers the limiter's counters in reg under
// <prefix>.admitted, <prefix>.queued, <prefix>.shed and the queue-depth
// gauge <prefix>.queue_depth. Call before the limiter sees traffic.
func (l *Limiter) Instrument(reg *obs.Registry, prefix string) {
	l.admitted = reg.Counter(prefix + ".admitted")
	l.queued = reg.Counter(prefix + ".queued")
	l.shed = reg.Counter(prefix + ".shed")
	l.depth = reg.Gauge(prefix + ".queue_depth")
}

// Acquire admits the caller, queues it briefly when at capacity, or sheds
// it. Returns nil on admission (pair with Release), ErrShed when shed, and
// ctx.Err() when the caller's context ends while queued.
func (l *Limiter) Acquire(ctx context.Context) error {
	select {
	case l.sem <- struct{}{}:
		l.admitted.Inc()
		return nil
	default:
	}
	// At capacity: try to take a queue slot without blocking.
	select {
	case l.queue <- struct{}{}:
	default:
		l.shed.Inc()
		return ErrShed
	}
	l.queued.Inc()
	l.depth.Add(1)
	defer func() {
		<-l.queue
		l.depth.Add(-1)
	}()
	timer := time.NewTimer(l.wait)
	defer timer.Stop()
	select {
	case l.sem <- struct{}{}:
		l.admitted.Inc()
		return nil
	case <-timer.C:
		l.shed.Inc()
		return ErrShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns an admitted caller's slot. Must be called exactly once
// per successful Acquire.
func (l *Limiter) Release() { <-l.sem }

// Stats reports the admission counters and the current concurrency.
func (l *Limiter) Stats() (admitted, queued, shed uint64, inFlight int) {
	return l.admitted.Value(), l.queued.Value(), l.shed.Value(), len(l.sem)
}

// Saturated reports whether the limiter is full: every run slot busy and
// every queue slot taken, so a new arrival would be shed. The readiness
// probe uses this to steer load-balancer traffic away before clients see
// 429s. A nil limiter (admission control off) is never saturated.
func (l *Limiter) Saturated() bool {
	if l == nil {
		return false
	}
	return len(l.sem) == cap(l.sem) && len(l.queue) == cap(l.queue)
}

// ErrorWriter renders an error response. The serving layer passes its JSON
// envelope writer so shed and panic responses look like every other error.
type ErrorWriter func(w http.ResponseWriter, status int, code, msg string)

// defaultErrorWriter is the fallback envelope, matching the serve package's
// {"error": ..., "code": ...} shape.
func defaultErrorWriter(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, "{\"error\":%q,\"code\":%q}\n", msg, code)
}

// Admission wraps a handler with the limiter: shed requests get 429 with a
// Retry-After header; a client that disconnects while queued gets 499.
func Admission(l *Limiter, retryAfter time.Duration, writeErr ErrorWriter) func(http.HandlerFunc) http.HandlerFunc {
	if writeErr == nil {
		writeErr = defaultErrorWriter
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	secs := int(retryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	retry := fmt.Sprintf("%d", secs)
	return func(fn http.HandlerFunc) http.HandlerFunc {
		if l == nil {
			return fn
		}
		return func(w http.ResponseWriter, r *http.Request) {
			switch err := l.Acquire(r.Context()); {
			case err == nil:
				defer l.Release()
				fn(w, r)
			case errors.Is(err, ErrShed):
				w.Header().Set("Retry-After", retry)
				writeErr(w, http.StatusTooManyRequests, "shed",
					"server over capacity; retry later")
			default: // the caller's context ended while queued
				writeErr(w, 499, "canceled", err.Error())
			}
		}
	}
}

// Deadline attaches a context budget to each request. A zero budget is a
// no-op, so unset budgets cost nothing.
func Deadline(budget time.Duration) func(http.HandlerFunc) http.HandlerFunc {
	return func(fn http.HandlerFunc) http.HandlerFunc {
		if budget <= 0 {
			return fn
		}
		return func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), budget)
			defer cancel()
			fn(w, r.WithContext(ctx))
		}
	}
}

// headerTracker remembers whether the handler already started the
// response, so the panic recovery path only writes its envelope onto a
// virgin connection.
type headerTracker struct {
	http.ResponseWriter
	wrote bool
}

func (h *headerTracker) WriteHeader(code int) {
	h.wrote = true
	h.ResponseWriter.WriteHeader(code)
}

func (h *headerTracker) Write(b []byte) (int, error) {
	h.wrote = true
	return h.ResponseWriter.Write(b)
}

// Recover converts a handler panic into a 500 JSON envelope and a counter
// increment instead of a process crash. http.ErrAbortHandler is re-raised:
// it is the stdlib's sanctioned way to abort a response, not a fault.
// panics may be nil (count is dropped); logf may be nil (panic values are
// not logged).
func Recover(panics *obs.Counter, logf func(format string, args ...any), writeErr ErrorWriter) func(http.HandlerFunc) http.HandlerFunc {
	if writeErr == nil {
		writeErr = defaultErrorWriter
	}
	return func(fn http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ht := &headerTracker{ResponseWriter: w}
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				if panics != nil {
					panics.Inc()
				}
				if logf != nil {
					logf("resilience: recovered handler panic on %s %s: %v", r.Method, r.URL.Path, rec)
				}
				if !ht.wrote {
					writeErr(ht, http.StatusInternalServerError, "internal",
						"internal error: handler panicked")
				}
			}()
			fn(ht, r)
		}
	}
}

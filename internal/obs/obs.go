// Package obs is the serving path's observability core: a stdlib-only
// metrics registry of atomic counters, gauges, and fixed-boundary latency
// histograms, with a stable JSON snapshot export.
//
// The design constraint is the hot path: once a metric is registered,
// recording into it (Counter.Inc, Gauge.Add, Histogram.Observe) performs
// only atomic operations on pre-allocated memory — no locks, no maps, no
// heap allocations — so instrumentation never shows up in the profiles it
// exists to explain. Registration (Registry.Counter and friends) takes a
// mutex and may allocate; callers resolve metric handles once at
// construction time and hold the pointers.
//
// Histograms use fixed bucket boundaries rather than adaptive sketches:
// fixed buckets make Observe O(#buckets) worst case with zero allocation,
// merge trivially across snapshots, and give quantile estimates whose
// error is bounded by bucket width — the standard trade for serving
// systems (Prometheus histograms make the same one). Quantiles (p50, p95,
// p99) are extracted from a snapshot by linear interpolation within the
// covering bucket.
//
// Snapshots are internally consistent per histogram: Count is defined as
// the sum of the bucket counts read, so a snapshot taken mid-Observe can
// lag the true total but never reports a count that disagrees with its own
// buckets (no torn reads).
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value that can move both ways (in-flight
// requests, queue depth). The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBounds are the histogram bucket upper bounds (seconds)
// used for request and estimate latencies: roughly logarithmic from 1µs
// to 5s, dense in the microseconds where served estimates live.
var DefaultLatencyBounds = []float64{
	1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5,
}

// Histogram counts observations into fixed buckets. Bucket i holds
// observations v with v <= bounds[i] (and > bounds[i-1]); one extra
// overflow bucket holds everything above the last bound. Construct through
// Registry.Histogram or NewHistogram.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, seconds
	buckets []atomic.Uint64
	sumNano atomic.Int64 // total observed time in nanoseconds
}

// NewHistogram builds a standalone histogram over the given ascending
// upper bounds (nil means DefaultLatencyBounds).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records a value in seconds.
func (h *Histogram) Observe(seconds float64) {
	// Linear scan: bounds are short (≤ ~20) and in cache; a binary search
	// saves nothing at this size and costs branch misses.
	i := 0
	for i < len(h.bounds) && seconds > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNano.Add(int64(seconds * 1e9))
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below UpperBound (and above the previous bound).
type Bucket struct {
	UpperBound float64 `json:"-"` // +Inf for the overflow bucket
	Count      uint64  `json:"count"`
}

// bucketJSON is the wire form: encoding/json rejects +Inf, so the overflow
// bound is rendered as the string "+Inf" (the Prometheus convention).
type bucketJSON struct {
	UpperBound any    `json:"le"`
	Count      uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b Bucket) MarshalJSON() ([]byte, error) {
	ub := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		ub = "+Inf"
	}
	return json.Marshal(bucketJSON{UpperBound: ub, Count: b.Count})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var w bucketJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	b.Count = w.Count
	switch v := w.UpperBound.(type) {
	case float64:
		b.UpperBound = v
	default: // "+Inf" or absent
		b.UpperBound = math.Inf(1)
	}
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram. Count always
// equals the sum of Buckets[i].Count.
type HistogramSnapshot struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
	P50        float64  `json:"p50_seconds"`
	P95        float64  `json:"p95_seconds"`
	P99        float64  `json:"p99_seconds"`
}

// Snapshot copies the histogram's current state and precomputes the
// standard quantiles. The per-bucket reads are individually atomic;
// Count is derived from the bucket values read, keeping the snapshot
// self-consistent even under concurrent Observes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Buckets: make([]Bucket, len(h.buckets))}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = Bucket{UpperBound: ub, Count: n}
		s.Count += n
	}
	s.SumSeconds = float64(h.sumNano.Load()) / 1e9
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the snapshot by
// locating the covering bucket and interpolating linearly inside it. The
// first bucket interpolates from zero; the overflow bucket reports its
// lower bound (the largest finite boundary), which under-reports extreme
// tails — acceptable because anything past the last bound is "too slow"
// regardless of by how much. Returns 0 for an empty snapshot.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		q = math.SmallestNonzeroFloat64
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, b := range s.Buckets {
		if b.Count == 0 {
			cum += 0
			continue
		}
		next := cum + float64(b.Count)
		if rank > next {
			cum = next
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Buckets[i-1].UpperBound
		}
		hi := b.UpperBound
		if math.IsInf(hi, 1) {
			// Overflow bucket: no finite upper edge to interpolate toward.
			return lo
		}
		return lo + (hi-lo)*(rank-cum)/float64(b.Count)
	}
	// Unreachable: rank ≤ Count = Σ bucket counts.
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// Registry is a named collection of metrics. Lookups take a mutex and are
// meant for construction time and snapshots; the returned metric handles
// are the hot-path interface. A name identifies exactly one metric: asking
// for an existing name returns the existing metric (for histograms, the
// requested bounds are then ignored).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds (nil = DefaultLatencyBounds) if needed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every registered metric. Marshaled
// to JSON the output is stable: encoding/json sorts map keys.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all metrics. Counters and gauges are read atomically;
// histogram snapshots are self-consistent per the Histogram.Snapshot
// contract.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

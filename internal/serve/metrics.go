package serve

import (
	"net/http"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/estimate"
	"treelattice/internal/obs"
)

// routeMetrics is one endpoint's pre-registered metric handles. All hot
// path updates are atomic operations on these pointers; nothing is looked
// up per request.
type routeMetrics struct {
	requests *obs.Counter
	status   [6]*obs.Counter // status[i] counts (i)xx responses; 0,1 unused
	latency  *obs.Histogram
}

func newRouteMetrics(reg *obs.Registry, route string) *routeMetrics {
	m := &routeMetrics{
		requests: reg.Counter("http." + route + ".requests"),
		latency:  reg.Histogram("http."+route+".latency_seconds", nil),
	}
	for _, class := range []int{2, 3, 4, 5} {
		m.status[class] = reg.Counter("http." + route + ".status." +
			string(rune('0'+class)) + "xx")
	}
	return m
}

// statusWriter captures the response status for the status-class counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps an endpoint handler with request counting, status
// classification, an in-flight gauge, and a latency histogram, and
// remembers the route for the stats summary.
func (h *Handler) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	m := newRouteMetrics(h.reg, route)
	h.routes[route] = m
	return func(w http.ResponseWriter, r *http.Request) {
		h.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		fn(sw, r)
		h.inFlight.Add(-1)
		m.requests.Inc()
		if class := sw.status / 100; class >= 2 && class <= 5 {
			m.status[class].Inc()
		}
		m.latency.ObserveSince(start)
	}
}

// metricsEndpoint serves the full registry snapshot, with the ingest
// gauges synced first.
func (h *Handler) metricsEndpoint(w http.ResponseWriter, _ *http.Request) {
	h.syncIngest()
	writeJSON(w, h.reg.Snapshot())
}

// endpointSummary is the operator's one-stop view of an endpoint inside
// /v1/stats: totals plus headline latency quantiles in milliseconds.
type endpointSummary struct {
	Requests uint64  `json:"requests"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
}

// endpointSummaries condenses the per-route metrics for /v1/stats.
func (h *Handler) endpointSummaries() map[string]endpointSummary {
	out := make(map[string]endpointSummary, len(h.routes))
	for route, m := range h.routes {
		s := m.latency.Snapshot()
		out[route] = endpointSummary{
			Requests: m.requests.Value(),
			P50ms:    s.P50 * 1e3,
			P95ms:    s.P95 * 1e3,
			P99ms:    s.P99 * 1e3,
		}
	}
	return out
}

// instrumentCorpus wires the corpus-side metrics: per-method estimate
// latency histograms and sub-estimate cache counters.
func (h *Handler) instrumentCorpus() {
	registered := core.RegisteredMethods()
	hists := make(map[core.Method]*obs.Histogram, len(registered))
	for _, m := range registered {
		hists[m] = h.reg.Histogram("estimate."+string(m)+".latency_seconds", nil)
	}
	// Mirror each decomposition method's sub-estimate cache into the
	// registry so /v1/metrics shows which estimator's workload shares
	// structure. Only the decomposition methods keep sub-caches; the
	// sampling, markov, and sketch backends have none to report. The
	// creation hook (rather than eager SubCache calls) makes the wiring
	// survive epoch swaps: every published epoch builds fresh per-epoch
	// sub-caches, inherits the hook, and instruments them with the same
	// registry counters — which are deduplicated by name, so the series
	// accumulate across epochs.
	h.c.Summary().OnSubCacheCreate(func(m core.Method, c *estimate.SubCache) {
		c.Instrument(
			h.reg.Counter("subcache."+string(m)+".hits"),
			h.reg.Counter("subcache."+string(m)+".misses"),
			h.reg.Counter("subcache."+string(m)+".evictions"),
		)
	})
	for _, m := range core.Methods() {
		h.c.Summary().SubCache(m) // create now; creation fires the hook
	}
	h.c.Summary().Instrument(func(m core.Method, d time.Duration) {
		if hist, ok := hists[m]; ok {
			hist.ObserveDuration(d)
		}
	})
}

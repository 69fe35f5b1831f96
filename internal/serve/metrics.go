package serve

import (
	"net/http"
	"time"

	"treelattice/internal/core"
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

// methodMetrics are one estimation method's served-estimate metrics: the
// latency of the /v1/estimate and /v1/t/{tenant}/estimate calls it
// answered, and, for the methods whose answers core caches, how often
// the cache held an answer. A method without an answer cache has nil
// counters.
type methodMetrics struct {
	latency      *obs.Histogram
	hits, misses *obs.Counter
}

// newMethodMetrics registers every method's metrics. Core keeps an
// answer cache for the two recursive methods only, so only they count
// subcache.<method>.hits and .misses.
func newMethodMetrics(reg *obs.Registry) map[core.Method]*methodMetrics {
	out := make(map[core.Method]*methodMetrics)
	for _, m := range core.RegisteredMethods() {
		out[m] = &methodMetrics{latency: reg.Histogram("estimate."+string(m)+".latency_seconds", nil)}
	}
	for _, m := range []core.Method{core.MethodRecursive, core.MethodRecursiveVoting} {
		out[m].hits = reg.Counter("subcache." + string(m) + ".hits")
		out[m].misses = reg.Counter("subcache." + string(m) + ".misses")
	}
	return out
}

// observeAnswer counts one answered estimate under its method's
// subcache counters when the method caches answers.
func (h *Handler) observeAnswer(res core.DegradedEstimate) {
	if m := h.perMethod[res.Method]; m != nil && m.hits != nil {
		if res.Cached {
			m.hits.Inc()
		} else {
			m.misses.Inc()
		}
	}
}

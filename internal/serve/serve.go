// Package serve exposes a corpus over HTTP, stdlib only — the service
// shape a query optimizer or interactive UI calls into.
//
// Endpoints (JSON unless noted):
//
//	GET    /v1/estimate?q=<twig>&method=<name>  estimated selectivity
//	POST   /v1/estimate/batch                   many estimates in one call
//	GET    /v1/methods                          estimation methods + capabilities
//	GET    /v1/exact?q=<twig>                   exact count (scans documents)
//	GET    /v1/query?q=<twig>&limit=<n>         execute a twig query, return matches
//	POST   /v1/query                            same, JSON body {"q": ..., "limit": ...}
//	GET    /v1/explain?q=<twig>                 estimate + trace + spread interval
//	GET    /v1/stats                            summary and corpus statistics
//	POST   /v1/docs/{name}                      add a document (XML body)
//	DELETE /v1/docs/{name}                      remove a document
//	GET    /v1/t/{tenant}/estimate              estimate against a named tenant
//	GET    /v1/t/{tenant}/query                 execute a query against a named tenant
//	GET    /v1/t/{tenant}/stats                 per-tenant statistics
//	POST   /v1/t/{tenant}/reload                hot-swap a tenant's new snapshot epoch
//	GET    /v1/tenants                          resident tenants + registry stats
//	GET    /v1/healthz                          liveness probe
//	GET    /v1/readyz                           readiness probe (503 when not ready)
//
// Multi-tenant serving (see internal/fleet): Options.Fleet supplies a
// registry of named tenants, each one snapshot loaded lazily; the
// legacy routes answer as the default tenant, the live corpus. Tenant
// routes sit behind per-tenant admission quotas
// (Resilience.TenantQuota). /v1/estimate and /v1/t/{tenant}/estimate
// share one path from parse to response, and so do /v1/query and
// /v1/t/{tenant}/query; a tenant route adds the tenant lookup, the
// tenant's quota and the "tenant" response field.
//
// Queries use the twig syntax ("a(b,c(d))"). Estimation methods are the
// rows of core's fixed method table (GET /v1/methods lists them): the
// paper's recursive, recursive+voting (default), and fix-sized
// decompositions, plus markov, treesketches, sampling, and ensemble. An
// ensemble answer carries its sampling cross-check verdict
// (cross_estimate, divergence, divergent) whenever the check completed.
//
// Every error response carries the JSON envelope
//
//	{"error": <message>, "code": <machine-readable code>}
//
// with codes: bad_query, unknown_method, method_unavailable,
// budget_exhausted, bad_document, too_large, batch_too_large, exists,
// not_found, frozen, ingest_backpressure, method_not_allowed, canceled,
// shed, deadline_exceeded, internal, bad_tenant, unknown_tenant,
// not_ready, reload_failed, no_documents.
//
// GET/POST /v1/query executes a twig query (extended axis syntax, so
// descendant steps like "//a(b,//c)" work) against the corpus documents
// over their label-region indexes: twigjoin's counter counts the
// matches, and enumeration materializes up to limit tuples. The bind
// order comes from the planner consulting the serving estimator
// (method=<name> picks it, naive=1 skips planning for the
// stored-numbering baseline); limit caps materialized match tuples
// (count stays exact past it), count=1 suppresses tuples entirely, and
// a blown node budget returns the partial count marked degraded. Every
// planned execution records measured/predicted candidates in the
// query.calibration_ratio histogram surfaced under /v1/stats' "query"
// section — the cost model's live validation signal — next to
// query.fallback, the queries counted by enumeration because they have
// a "//" edge and a repeated label.
//
// POST /v1/estimate/batch accepts {"queries": [...], "method": <name>}
// (up to MaxBatchQueries queries) and answers positionally with per-item
// envelopes: one unparseable query fails alone, not the batch. A batch
// entry may also be an object {"q": <twig>, "method": <name>} overriding
// the batch-level method for that item; every item's envelope echoes the
// method that answered it. The whole
// batch occupies a single admission slot and fans out across a worker
// pool sharing the summary's sub-estimate cache, so structurally
// overlapping queries decompose shared sub-twigs once.
//
// Document uploads are mined into a private lattice bounded by the
// request context, so a client disconnect abandons the work without
// touching the corpus; a finished mine lands in the corpus delta and is
// published as a new epoch. Removals land the same way, as a negative
// increment. The handler takes no lock: every request loads the corpus's
// current epoch once and finishes against it. The one cache between a
// request and the lattice is the summary's sub-estimate cache
// (estimate.SubCache), which also answers a repeated query by its
// whole-query key; a new epoch is a new summary with fresh caches, so
// publishing is the invalidation.
//
// Resilience (see Options.Resilience and internal/resilience): the
// work-bearing endpoints sit behind admission control (shed requests get
// 429 + Retry-After), per-endpoint deadline budgets (blown budgets get 504,
// or a cheaper degraded estimate when a fallback method exists), and panic
// recovery (500 instead of a process death). /v1/stats and /v1/metrics stay
// ungated so operators can observe an overloaded server.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/estimate"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/metrics"
	"treelattice/internal/obs"
	"treelattice/internal/resilience"
	"treelattice/internal/twigjoin"
)

// MaxDocumentBytes bounds uploaded document size; larger bodies get 413.
const MaxDocumentBytes = 64 << 20

// Backend is the corpus surface the handler serves. *corpus.Corpus is the
// production implementation; the resilience tests wrap one with injectable
// latency, errors, and panics (faultinject_test.go).
type Backend interface {
	Summary() *core.Summary
	Docs() []string
	Workers() int
	SetWorkers(n int)
	BuildTimings() *metrics.BuildTimings
	ExactCountContext(ctx context.Context, q labeltree.Pattern) (int64, error)
	AddXMLContext(ctx context.Context, name string, r io.Reader) error
	Remove(name string) error
	// IngestStats snapshots the background ingest counters (all zeros
	// when ingest is not enabled).
	IngestStats() core.IngestStats
}

var _ Backend = (*corpus.Corpus)(nil)

// ResilienceOptions configures admission control, deadline budgets, and
// graceful degradation. The zero value disables all of it, preserving the
// pre-resilience behavior for embedded and test use.
type ResilienceOptions struct {
	// AdmissionLimit bounds how many work-bearing requests (estimate,
	// exact, explain, document mutations) run concurrently; excess load
	// queues briefly and is then shed with 429 + Retry-After. Zero
	// disables admission control.
	AdmissionLimit int
	// AdmissionQueue bounds the burst-absorbing wait queue
	// (default 2×AdmissionLimit).
	AdmissionQueue int
	// QueueWait bounds how long a queued request waits before being shed
	// (default 100ms).
	QueueWait time.Duration
	// RetryAfter is the Retry-After hint on shed responses (default 1s).
	RetryAfter time.Duration
	// EstimateBudget is the deadline for /v1/estimate and /v1/explain.
	// Zero means no deadline.
	EstimateBudget time.Duration
	// ExactBudget is the deadline for /v1/exact (the expensive
	// Definition-1 full-document scan). Zero means no deadline.
	ExactBudget time.Duration
	// BuildBudget is the deadline for POST /v1/docs (parse + mine +
	// merge). Zero means no deadline.
	BuildBudget time.Duration
	// QueryBudget is the deadline for /v1/query (plan + indexed twig
	// execution across the corpus). Zero means no deadline.
	QueryBudget time.Duration
	// QueryNodeBudget bounds the candidate nodes one /v1/query execution
	// may visit across the whole corpus scan, plus the subset-DP steps
	// of same-label sibling groups; an exhausted budget returns the
	// partial count marked degraded instead of failing. Zero means
	// unlimited.
	QueryNodeBudget int64
	// DisableFallback turns off graceful degradation: an estimate that
	// blows its budget returns 504 instead of falling back to a cheaper
	// method.
	DisableFallback bool
	// TenantQuota bounds concurrent in-flight estimates and queries per
	// tenant on the tenant routes, on top of the global admission limit:
	// the limiter decides whether the server has capacity, the quota
	// decides whether one tenant may monopolize it. Zero disables quotas.
	TenantQuota int
}

// Options configures the handler.
type Options struct {
	// Workers bounds the parallelism of upload mining (0 = GOMAXPROCS).
	Workers int
	// MaxDocumentBytes overrides the upload size limit (0 = the
	// MaxDocumentBytes constant).
	MaxDocumentBytes int64
	// Registry receives the handler's metrics; nil creates a private one.
	// Sharing a registry lets an embedding process (a debug listener, a
	// benchmark's per-layer trace) read the same counters the handler
	// writes.
	Registry *obs.Registry
	// Resilience configures admission control, deadlines, and
	// degradation. Zero value: all off.
	Resilience ResilienceOptions
	// Fleet is the multi-tenant registry behind the /v1/t/{tenant}/*
	// routes; nil serves only the default tenant (the corpus). The
	// registry loads tenant snapshots lazily and keeps an LRU of
	// resident ones.
	Fleet *fleet.Registry
	// Logf receives panic-recovery log lines; nil means no logging.
	Logf func(format string, args ...any)
}

// Handler serves a corpus. It holds no lock of its own: the backend
// publishes immutable epochs and serializes its writers.
type Handler struct {
	c        Backend
	mux      *http.ServeMux
	maxBytes int64
	res      ResilienceOptions

	flt         *fleet.Registry
	quota       *resilience.QuotaSet
	tenantMu    sync.Mutex
	tenantStats map[string]*tenantMetrics

	reg               *obs.Registry
	inFlight          *obs.Gauge
	epochG            *obs.Gauge
	deltaDocsG        *obs.Gauge
	deltaBytesG       *obs.Gauge
	routes            map[string]*routeMetrics
	limiter           *resilience.Limiter
	panics            *obs.Counter
	degraded          *obs.Counter
	timeouts          *obs.Counter
	batchSizes        *obs.Histogram
	ensembleChecked   *obs.Counter
	ensembleDivergent *obs.Counter

	queries          *obs.Counter
	queryDegradedC   *obs.Counter
	queryFallback    *obs.Counter
	queryCandidates  *obs.Counter
	queryCalibration *obs.Histogram
}

// NewHandler wraps a corpus with default options.
func NewHandler(c Backend) *Handler {
	return NewHandlerOptions(c, Options{})
}

// NewHandlerOptions wraps a corpus.
func NewHandlerOptions(c Backend, opts Options) *Handler {
	if opts.Workers > 0 {
		c.SetWorkers(opts.Workers)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h := &Handler{
		c:           c,
		maxBytes:    opts.MaxDocumentBytes,
		res:         opts.Resilience,
		flt:         opts.Fleet,
		quota:       resilience.NewQuotaSet(opts.Resilience.TenantQuota),
		tenantStats: make(map[string]*tenantMetrics),
		reg:         reg,
		inFlight:    reg.Gauge("http.in_flight"),
		epochG:      reg.Gauge("ingest.epoch"),
		deltaDocsG:  reg.Gauge("ingest.delta_docs"),
		deltaBytesG: reg.Gauge("ingest.delta_bytes"),
		routes:      make(map[string]*routeMetrics),
		panics:      reg.Counter("http.panics"),
		degraded:    reg.Counter("estimate.degraded"),
		timeouts:    reg.Counter("http.deadline_exceeded"),
		batchSizes: reg.Histogram("http.estimate_batch.batch_size",
			batchSizeBounds),
		ensembleChecked:   reg.Counter("ensemble.checked"),
		ensembleDivergent: reg.Counter("ensemble.divergent"),
		queries:           reg.Counter("query.executed"),
		queryDegradedC:    reg.Counter("query.degraded"),
		queryFallback:     reg.Counter("query.fallback"),
		queryCandidates:   reg.Counter("query.candidates"),
		queryCalibration: reg.Histogram("query.calibration_ratio",
			calibrationBounds),
	}
	if h.maxBytes <= 0 {
		h.maxBytes = MaxDocumentBytes
	}
	if h.res.AdmissionLimit > 0 {
		h.limiter = resilience.NewLimiter(resilience.LimiterOptions{
			Limit:     h.res.AdmissionLimit,
			Queue:     h.res.AdmissionQueue,
			QueueWait: h.res.QueueWait,
		})
		h.limiter.Instrument(reg, "resilience")
	}
	h.quota.Instrument(reg, "resilience.tenant_quota")
	h.instrumentCorpus()

	// Middleware assembly, innermost first: the deadline budget must be on
	// the context the handler sees; admission runs before the budget starts
	// ticking (queue wait should not eat into compute time); recovery wraps
	// everything so a panic anywhere inside becomes a 500 + counter.
	recov := resilience.Recover(h.panics, opts.Logf, writeError)
	admit := resilience.Admission(h.limiter, h.res.RetryAfter, writeError)
	guarded := func(budget time.Duration, fn http.HandlerFunc) http.HandlerFunc {
		return recov(admit(resilience.Deadline(budget)(fn)))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/estimate", h.instrument("estimate", guarded(h.res.EstimateBudget, h.estimate)))
	mux.HandleFunc("POST /v1/estimate/batch", h.instrument("estimate_batch", guarded(h.res.EstimateBudget, h.estimateBatch)))
	mux.HandleFunc("GET /v1/exact", h.instrument("exact", guarded(h.res.ExactBudget, h.exact)))
	mux.HandleFunc("GET /v1/query", h.instrument("query", guarded(h.res.QueryBudget, h.query)))
	mux.HandleFunc("POST /v1/query", h.instrument("query", guarded(h.res.QueryBudget, h.query)))
	mux.HandleFunc("GET /v1/explain", h.instrument("explain", guarded(h.res.EstimateBudget, h.explain)))
	mux.HandleFunc("GET /v1/methods", h.instrument("methods", recov(h.methods)))
	mux.HandleFunc("GET /v1/stats", h.instrument("stats", recov(h.stats)))
	mux.HandleFunc("GET /v1/metrics", h.instrument("metrics", recov(h.metricsEndpoint)))
	mux.HandleFunc("POST /v1/docs/{name}", h.instrument("doc_add", guarded(h.res.BuildBudget, h.addDoc)))
	mux.HandleFunc("DELETE /v1/docs/{name}", h.instrument("doc_remove", guarded(0, h.removeDoc)))
	// Multi-tenant routes: the same estimate pipeline, routed by tenant
	// through the fleet registry.
	mux.HandleFunc("GET /v1/t/{tenant}/estimate", h.instrument("tenant_estimate", guarded(h.res.EstimateBudget, h.tenantEstimate)))
	mux.HandleFunc("GET /v1/t/{tenant}/query", h.instrument("tenant_query", guarded(h.res.QueryBudget, h.tenantQuery)))
	mux.HandleFunc("POST /v1/t/{tenant}/query", h.instrument("tenant_query", guarded(h.res.QueryBudget, h.tenantQuery)))
	mux.HandleFunc("GET /v1/t/{tenant}/stats", h.instrument("tenant_stats", recov(h.tenantStatsEndpoint)))
	mux.HandleFunc("POST /v1/t/{tenant}/reload", h.instrument("tenant_reload", guarded(0, h.tenantReload)))
	mux.HandleFunc("GET /v1/tenants", h.instrument("tenants", recov(h.tenantsEndpoint)))
	// Health probes stay outside admission control: a load balancer must
	// be able to ask an overloaded replica how it is doing — readyz
	// reports the saturation instead of queueing behind it.
	mux.HandleFunc("GET /v1/healthz", h.instrument("healthz", recov(h.healthz)))
	mux.HandleFunc("GET /v1/readyz", h.instrument("readyz", recov(h.readyz)))
	// Method-less fallbacks: a matching path with the wrong verb gets the
	// JSON envelope instead of the mux's plain-text 405. They share one
	// "other" metric with the 404 fallback: per-endpoint histograms are
	// for traffic that reached an endpoint.
	other := func(fn http.HandlerFunc) http.HandlerFunc { return h.instrument("other", fn) }
	mux.HandleFunc("/v1/estimate", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/estimate/batch", other(methodNotAllowed("POST")))
	mux.HandleFunc("/v1/methods", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/exact", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/query", other(methodNotAllowed("GET, POST")))
	mux.HandleFunc("/v1/explain", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/stats", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/metrics", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/docs/{name}", other(methodNotAllowed("POST, DELETE")))
	mux.HandleFunc("/v1/t/{tenant}/estimate", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/t/{tenant}/query", other(methodNotAllowed("GET, POST")))
	mux.HandleFunc("/v1/t/{tenant}/stats", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/t/{tenant}/reload", other(methodNotAllowed("POST")))
	mux.HandleFunc("/v1/tenants", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/healthz", other(methodNotAllowed("GET")))
	mux.HandleFunc("/v1/readyz", other(methodNotAllowed("GET")))
	mux.HandleFunc("/", other(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not_found", "no such endpoint")
	}))
	h.mux = mux
	return h
}

// Metrics exposes the handler's registry (shared with Options.Registry
// when one was supplied).
func (h *Handler) Metrics() *obs.Registry { return h.reg }

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) method(r *http.Request) core.Method {
	m := r.URL.Query().Get("method")
	if m == "" {
		return core.MethodRecursiveVoting
	}
	return core.Method(m)
}

// estimate serves GET /v1/estimate against the live corpus.
func (h *Handler) estimate(w http.ResponseWriter, r *http.Request) {
	h.answerEstimate(w, r, "", h.c.Summary())
}

// answerEstimate serves one estimate request against sum, from parse to
// response, for /v1/estimate (tenant empty) and /v1/t/{tenant}/estimate.
// A named tenant adds its admission quota and the "tenant" response
// field. The caller passes the summary it resolved so the whole request
// pins one epoch; re-loading here could observe a newer one mid-request.
// The estimate runs within the request budget, degrading to a cheaper
// method when the budget expires (unless disabled); an ensemble answer
// carries its cross-check verdict.
func (h *Handler) answerEstimate(w http.ResponseWriter, r *http.Request, tenant string, sum *core.Summary) {
	qs := r.URL.Query().Get("q")
	if qs == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing q parameter")
		return
	}
	method := h.method(r)
	// Validate the method before the query: with an empty corpus every
	// label is unknown, and a bogus method should still 400. LookupMethod
	// checks the registry without preparing the backend.
	if _, err := sum.LookupMethod(method); err != nil {
		writeCoreError(w, err)
		return
	}
	resp := map[string]any{"query": qs}
	if tenant != "" {
		if !h.admitTenant(w, tenant) {
			return
		}
		defer h.quota.Release(tenant)
		resp["tenant"] = tenant
	}
	q, err := sum.ParseQuery(qs)
	if errors.Is(err, core.ErrUnknownLabel) {
		// A label no document has ever carried cannot match: the true
		// selectivity is exactly zero.
		resp["estimate"] = 0.0
		writeJSON(w, resp)
		return
	}
	if err != nil {
		writeCoreError(w, err)
		return
	}
	run := sum.EstimateDegradable
	if h.res.DisableFallback {
		run = sum.EstimateStrict
	}
	res, err := run(r.Context(), q, method)
	if err != nil {
		h.coreError(w, err)
		return
	}
	if res.Degraded {
		h.degraded.Inc()
		resp["degraded"] = true
	}
	h.observeEnsemble(res)
	resp["estimate"] = res.Estimate
	resp["method"] = string(res.Method)
	if res.Checked {
		resp["cross_estimate"] = res.CrossEstimate
		resp["divergence"] = res.Divergence
		resp["divergent"] = res.Divergent
	}
	writeJSON(w, resp)
}

// methodCapabilities is one /v1/methods entry: the method's name plus
// its declared capabilities.
type methodCapabilities struct {
	Name string `json:"name"`
	core.Capabilities
}

// methods serves GET /v1/methods: the estimator discovery endpoint,
// driven entirely by core's method table.
func (h *Handler) methods(w http.ResponseWriter, _ *http.Request) {
	sum := h.c.Summary()
	list := core.RegisteredMethods()
	out := make([]methodCapabilities, len(list))
	for i, m := range list {
		caps, _ := sum.LookupMethod(m) // every listed method is in the table
		out[i] = methodCapabilities{Name: string(m), Capabilities: caps}
	}
	writeJSON(w, map[string]any{
		"default": string(core.MethodRecursiveVoting),
		"methods": out,
	})
}

// observeEnsemble feeds an estimate's cross-check outcome into the obs
// counters behind /v1/stats' ensemble section.
func (h *Handler) observeEnsemble(res core.DegradedEstimate) {
	if !res.Checked {
		return
	}
	h.ensembleChecked.Inc()
	if res.Divergent {
		h.ensembleDivergent.Inc()
	}
}

func (h *Handler) exact(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query().Get("q")
	if qs == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing q parameter")
		return
	}
	q, err := h.c.Summary().ParseQuery(qs)
	if errors.Is(err, core.ErrUnknownLabel) {
		writeJSON(w, map[string]any{"query": qs, "count": int64(0)})
		return
	}
	if err != nil {
		writeCoreError(w, err)
		return
	}
	count, err := h.c.ExactCountContext(r.Context(), q)
	if err != nil {
		h.coreError(w, err)
		return
	}
	writeJSON(w, map[string]any{"query": qs, "count": count})
}

func (h *Handler) explain(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query().Get("q")
	if qs == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing q parameter")
		return
	}
	sum := h.c.Summary()
	q, err := sum.ParseQuery(qs)
	if err != nil {
		writeCoreError(w, err)
		return
	}
	// Both recursions run under the route's estimate budget; an expired
	// one answers 504 like /v1/estimate past its last fallback.
	est, trace, err := sum.EstimateWithTraceContext(r.Context(), q, core.MethodRecursiveVoting)
	if err != nil {
		h.coreError(w, err)
		return
	}
	iv, err := sum.EstimateInterval(r.Context(), q)
	if err != nil {
		h.coreError(w, err)
		return
	}
	writeJSON(w, explainResponse{
		Query:    qs,
		Estimate: est,
		Trace:    trace,
		SpreadLo: iv.Lo,
		SpreadHi: iv.Hi,
	})
}

type explainResponse struct {
	Query    string         `json:"query"`
	Estimate float64        `json:"estimate"`
	Trace    estimate.Trace `json:"trace"`
	SpreadLo float64        `json:"spread_lo"`
	SpreadHi float64        `json:"spread_hi"`
}

func (h *Handler) stats(w http.ResponseWriter, _ *http.Request) {
	s := h.c.Summary()
	ing := h.syncIngest()
	resp := map[string]any{
		"k":              s.K(),
		"patterns":       s.Patterns(),
		"bytes":          s.SizeBytes(),
		"backend":        s.StoreKind(),
		"resident_bytes": s.ResidentBytes(),
		"documents":      h.c.Docs(),
		"workers":        h.c.Workers(),
		// One-stop obs summary: per-endpoint totals and latency quantiles,
		// plus current concurrency, without scraping /v1/metrics.
		"endpoints": h.endpointSummaries(),
		"in_flight": h.inFlight.Value(),
		// Resilience headline: is the server shedding, degrading, timing
		// out, or eating panics right now?
		"resilience": h.resilienceSummary(),
		// Shared sub-estimate cache effectiveness across the estimator
		// worker pool: the one cache in front of the lattice.
		"subcache": h.subcacheSummary(s),
		// Ensemble cross-check outcomes: how many estimates carried a
		// completed sampling cross-check, and how many of those diverged
		// past the threshold.
		"ensemble": map[string]any{
			"checked":   h.ensembleChecked.Value(),
			"divergent": h.ensembleDivergent.Value(),
		},
		// Batch endpoint traffic shape: are clients batching, and how big?
		"batch": h.batchSummary(),
		// Twig query execution: volume, degradation, and the planner's
		// calibration (measured candidates / predicted candidates).
		"query": h.querySummary(),
		// Per-tenant traffic split (requests, shed, subcache hit ratio);
		// the flat totals above are unchanged and fleet-wide.
		"tenants": h.tenantsSummary(),
		// Zero-downtime ingest pipeline: serving epoch, delta overlay
		// size, and refreezer health. All zeros when ingest is off.
		"epoch":  ing.Epoch,
		"ingest": ing,
	}
	if h.flt != nil {
		resp["fleet"] = h.flt.Stats()
	}
	if t := h.c.BuildTimings(); t != nil {
		resp["last_build_ms"] = t.Millis()
	}
	writeJSON(w, resp)
}

// resilienceSummary condenses the admission/degradation counters for
// /v1/stats.
func (h *Handler) resilienceSummary() map[string]any {
	out := map[string]any{
		"degraded":          h.degraded.Value(),
		"panics":            h.panics.Value(),
		"deadline_exceeded": h.timeouts.Value(),
	}
	if h.limiter != nil {
		admitted, queued, shed, inFlight := h.limiter.Stats()
		out["admitted"] = admitted
		out["queued"] = queued
		out["shed"] = shed
		out["admission_in_flight"] = inFlight
	}
	return out
}

// subcacheSummary condenses the summary's shared sub-estimate cache
// counters (aggregated across the per-method caches) for /v1/stats.
func (h *Handler) subcacheSummary(s *core.Summary) map[string]any {
	st := s.SubCacheStats()
	ratio := 0.0
	if st.Hits+st.Misses > 0 {
		ratio = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return map[string]any{
		"hits":      st.Hits,
		"misses":    st.Misses,
		"evictions": st.Evictions,
		"entries":   st.Entries,
		"hit_ratio": ratio,
	}
}

// batchSummary condenses the batch-size histogram for /v1/stats. The
// histogram observes sizes, not seconds, so the snapshot's sum is the
// total number of queries carried by batch requests.
func (h *Handler) batchSummary() map[string]any {
	snap := h.batchSizes.Snapshot()
	return map[string]any{
		"requests":      snap.Count,
		"total_queries": int64(snap.SumSeconds + 0.5),
		"p50_size":      snap.P50,
		"p95_size":      snap.P95,
		"size_buckets":  snap.Buckets,
	}
}

// syncIngest snapshots the backend's ingest counters and mirrors the
// headline ones into the obs registry's ingest.* gauges; /v1/stats and
// /v1/metrics both call it, so either reads the current epoch and delta
// size.
func (h *Handler) syncIngest() core.IngestStats {
	ing := h.c.IngestStats()
	h.epochG.Set(int64(ing.Epoch))
	h.deltaDocsG.Set(int64(ing.DeltaDocs))
	h.deltaBytesG.Set(int64(ing.DeltaBytes))
	return ing
}

// addDoc serves POST /v1/docs/{name}. The add publishes a new epoch;
// in-flight reads finish against the epoch they pinned, and new ones
// start on the new epoch's summary with fresh caches.
func (h *Handler) addDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body := http.MaxBytesReader(w, r.Body, h.maxBytes)
	if err := h.c.AddXMLContext(r.Context(), name, body); err != nil {
		writeCorpusError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"added": name})
}

func (h *Handler) removeDoc(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := h.c.Remove(name); err != nil {
		writeCorpusError(w, err)
		return
	}
	writeJSON(w, map[string]any{"removed": name})
}

func methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("use %s", allow))
	}
}

// coreError is writeCoreError plus deadline accounting.
func (h *Handler) coreError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		h.timeouts.Inc()
	}
	writeCoreError(w, err)
}

// coreErrorCode classifies estimation-side errors into the envelope's
// (status, code) vocabulary. Shared between whole-response errors
// (writeCoreError) and the batch endpoint's per-item envelopes.
func coreErrorCode(err error) (int, string) {
	switch {
	case errors.Is(err, core.ErrBadQuery), errors.Is(err, twigjoin.ErrSiblingGroup):
		return http.StatusBadRequest, "bad_query"
	case errors.Is(err, core.ErrUnknownLabel):
		return http.StatusBadRequest, "unknown_label"
	case errors.Is(err, core.ErrUnknownMethod):
		return http.StatusBadRequest, "unknown_method"
	case errors.Is(err, core.ErrMethodUnavailable):
		// Registered but unusable here (no documents for a sampling-class
		// backend): a conflict with server state, not a client typo.
		return http.StatusConflict, "method_unavailable"
	case errors.Is(err, core.ErrNoDocuments):
		// Query execution needs bound documents; snapshot-only summaries
		// (frozen fleet tenants) can estimate but not execute. Server
		// state, not a client typo.
		return http.StatusConflict, "no_documents"
	case errors.Is(err, core.ErrBudgetExhausted):
		// A budgeted backend ran out of internal budget with fallback
		// disabled — the 504 family, like a blown deadline.
		return http.StatusGatewayTimeout, "budget_exhausted"
	case errors.Is(err, context.DeadlineExceeded):
		// The endpoint's deadline budget expired mid-computation.
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		// The client went away; 499 in nginx's vocabulary.
		return 499, "canceled"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

// writeCoreError maps estimation-side errors onto the envelope.
func writeCoreError(w http.ResponseWriter, err error) {
	status, code := coreErrorCode(err)
	writeError(w, status, code, err.Error())
}

// writeCorpusError maps document-mutation errors onto the envelope.
func writeCorpusError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("document exceeds %d bytes", tooLarge.Limit))
	case errors.Is(err, corpus.ErrDocExists):
		writeError(w, http.StatusConflict, "exists", err.Error())
	case errors.Is(err, corpus.ErrNoSuchDoc):
		writeError(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, corpus.ErrIngestBackpressure):
		// The delta overlay hit its hard size limit before the refreezer
		// caught up; the client should back off and retry — the same
		// contract as admission shedding.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "ingest_backpressure", err.Error())
	case errors.Is(err, corpus.ErrReadOnly):
		// A read-only replica (loaded via corpus.OpenReadOnly without
		// ingest) accepts no document writes.
		writeError(w, http.StatusConflict, "frozen", err.Error())
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// 499 in nginx's vocabulary; stdlib has no constant for it.
		writeError(w, 499, "canceled", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "bad_document", err.Error())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing more to do than note it.
		fmt.Println("serve: encoding response:", err)
	}
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg, "code": code})
}

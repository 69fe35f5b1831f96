package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"

	"treelattice/internal/core"
	"treelattice/internal/fleet"
	"treelattice/internal/obs"
	"treelattice/internal/qcache"
)

// DefaultTenant is the name the legacy single-tenant routes answer as
// when no override is configured: /v1/estimate and
// /v1/t/default/estimate are the same corpus.
const DefaultTenant = "default"

// tenantMetrics is one tenant's slice of the obs registry. The metric
// names are namespaced under tenant.<name>.* so the existing flat names
// (http.*, resilience.*, subcache.*) keep their meaning — dashboards
// scraping them see fleet-wide totals, and the per-tenant split is
// additive.
type tenantMetrics struct {
	requests *obs.Counter
	shed     *obs.Counter
}

// tenantMetricsFor returns (creating on first use) name's counters.
// Names are validated before this point, so the label space is bounded
// by the tenants that actually exist.
func (h *Handler) tenantMetricsFor(name string) *tenantMetrics {
	h.tenantMu.Lock()
	defer h.tenantMu.Unlock()
	tm, ok := h.tenantStats[name]
	if !ok {
		tm = &tenantMetrics{
			requests: h.reg.Counter("tenant." + name + ".requests"),
			shed:     h.reg.Counter("tenant." + name + ".shed"),
		}
		h.tenantStats[name] = tm
	}
	return tm
}

// tenantFor resolves a tenant name: the default tenant is the live
// corpus behind the legacy routes, everything else loads through the
// fleet registry (when one is configured).
func (h *Handler) tenantFor(ctx context.Context, name string) (*fleet.Tenant, error) {
	if err := fleet.ValidateName(name); err != nil {
		return nil, err
	}
	if name == h.defaultTenant {
		return fleet.NewTenant(name, h.c.Summary()), nil
	}
	if h.flt == nil {
		return nil, fleet.ErrUnknownTenant
	}
	return h.flt.Acquire(ctx, name)
}

// tenantEstimate serves GET /v1/t/{tenant}/estimate: the multi-tenant
// twin of /v1/estimate. Sharded tenants answer through the
// scatter-gather front end and report how much of the fleet produced
// the answer; a partial answer (some shard missed its deadline) is
// marked degraded. The whole-query cache applies here too — entries are
// keyed by (tenant, epoch), so tenants never see each other's answers
// and a reload or epoch swap makes old entries unreachable. Partial and
// degraded answers are never cached: they reflect transient pressure,
// not the tenant's true estimate.
func (h *Handler) tenantEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	tn, err := h.tenantFor(r.Context(), name)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	qs := r.URL.Query().Get("q")
	if qs == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing q parameter")
		return
	}
	method := h.method(r)
	if _, err := tn.Summary.LookupMethod(method); err != nil {
		writeCoreError(w, err)
		return
	}
	tm := h.tenantMetricsFor(name)
	if !h.quota.Acquire(name) {
		tm.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "shed",
			"tenant over its admission quota; retry later")
		return
	}
	defer h.quota.Release(name)
	tm.requests.Inc()

	q, err := tn.Summary.ParseQuery(qs)
	if errors.Is(err, core.ErrUnknownLabel) {
		writeJSON(w, map[string]any{"tenant": name, "query": qs, "estimate": 0.0})
		return
	}
	if err != nil {
		writeCoreError(w, err)
		return
	}
	scope := h.tenantScope(name, tn.Summary)
	if est, ok := h.cache.Get(scope, string(method), q); ok {
		writeJSON(w, map[string]any{
			"tenant": name, "query": qs, "estimate": est, "method": string(method),
		})
		return
	}
	res, err := tn.Estimate(r.Context(), q, method, fleet.EstimateOptions{
		ShardTimeout: h.res.ShardTimeout,
		NoFallback:   h.res.DisableFallback,
	})
	if err != nil {
		if errors.Is(err, fleet.ErrNoShards) {
			writeFleetError(w, err)
			return
		}
		h.coreError(w, err)
		return
	}
	if res.Degraded {
		h.degraded.Inc()
	}
	h.observeEnsemble(res.DegradedEstimate)
	if !res.Degraded && !res.Partial {
		h.cache.Put(scope, string(res.Method), q, res.Estimate)
	}
	resp := map[string]any{
		"tenant":   name,
		"query":    qs,
		"estimate": res.Estimate,
		"method":   string(res.Method),
	}
	if tn.Shards > 1 || res.Partial {
		resp["shards_total"] = res.ShardsTotal
		resp["shards_answered"] = res.ShardsAnswered
	}
	if res.Degraded {
		resp["degraded"] = true
	}
	if res.Checked {
		resp["cross_estimate"] = res.CrossEstimate
		resp["divergence"] = res.Divergence
		resp["divergent"] = res.Divergent
	}
	writeJSON(w, resp)
}

// tenantScope derives the cache scope for an estimate against a named
// tenant. The corpus discriminates by RCU epoch; fleet tenants loaded
// from static snapshots carry no epoch, so their registry generation
// fills the slot — a reload bumps it and the previous
// generation's entries become unreachable.
func (h *Handler) tenantScope(name string, sum *core.Summary) qcache.Scope {
	sc := scopeFor(name, sum)
	if sc.Epoch == 0 && h.flt != nil && name != h.defaultTenant {
		sc.Epoch = h.flt.Generation(name)
	}
	return sc
}

// tenantReload serves POST /v1/t/{tenant}/reload: hot-swap the tenant's
// freshly published snapshots into the registry without evicting the
// serving copy — in-flight estimates finish against the old tenant,
// new requests see the new one. The fleet-side half of zero-downtime
// ingest: a writer replica refreezes, then the serving fleet reloads.
func (h *Handler) tenantReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := fleet.ValidateName(name); err != nil {
		writeFleetError(w, err)
		return
	}
	if name == h.defaultTenant {
		writeError(w, http.StatusConflict, "reload_failed",
			"default tenant is the live corpus; it publishes epochs, not snapshot reloads")
		return
	}
	if h.flt == nil {
		writeFleetError(w, fleet.ErrUnknownTenant)
		return
	}
	tn, err := h.flt.Reload(r.Context(), name)
	if err != nil {
		switch {
		case errors.Is(err, fleet.ErrBadName), errors.Is(err, fleet.ErrUnknownTenant),
			errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeFleetError(w, err)
		default:
			writeError(w, http.StatusConflict, "reload_failed", err.Error())
		}
		return
	}
	// The generation bump already routes new lookups past the old
	// entries; dropping them too frees the LRU slots immediately.
	h.cache.DropScope(name)
	writeJSON(w, map[string]any{
		"tenant":     name,
		"reloaded":   true,
		"generation": h.flt.Generation(name),
		"backend":    tn.StoreKind(),
		"shards":     tn.Shards,
	})
}

// tenantStatsEndpoint serves GET /v1/t/{tenant}/stats: the tenant's
// summary shape, traffic counters, and sub-estimate cache
// effectiveness.
func (h *Handler) tenantStatsEndpoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	tn, err := h.tenantFor(r.Context(), name)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	tm := h.tenantMetricsFor(name)
	writeJSON(w, map[string]any{
		"tenant":         name,
		"shards":         tn.Shards,
		"epoch":          h.tenantScope(name, tn.Summary).Epoch,
		"k":              tn.Summary.K(),
		"patterns":       tn.Summary.Patterns(),
		"bytes":          tn.Summary.SizeBytes(),
		"backend":        tn.StoreKind(),
		"resident_bytes": tn.ResidentBytes(),
		"requests":       tm.requests.Value(),
		"shed":           tm.shed.Value(),
		"in_flight":      h.quota.InFlight(name),
		"subcache":       h.subcacheSummary(tn.Summary),
	})
}

// tenantsEndpoint serves GET /v1/tenants: residence and churn of the
// fleet registry, plus per-tenant backend kind and resident footprint
// for every loaded tenant (and always the default tenant).
func (h *Handler) tenantsEndpoint(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"default": h.defaultTenant}
	tenants := map[string]any{}
	if h.flt != nil {
		names := h.flt.Resident()
		resp["resident"] = names
		resp["registry"] = h.flt.Stats()
		for _, name := range names {
			if tn, ok := h.flt.Peek(name); ok {
				tenants[name] = tenantShape(tn)
			}
		}
	} else {
		resp["resident"] = []string{h.defaultTenant}
	}
	if _, ok := tenants[h.defaultTenant]; !ok {
		tenants[h.defaultTenant] = tenantShape(fleet.NewTenant(h.defaultTenant, h.c.Summary()))
	}
	resp["tenants"] = tenants
	writeJSON(w, resp)
}

// tenantShape is the /v1/tenants per-tenant entry: which backend the
// tenant's summary runs on and how many bytes it keeps resident.
func tenantShape(tn *fleet.Tenant) map[string]any {
	return map[string]any{
		"backend":        tn.StoreKind(),
		"shards":         tn.Shards,
		"resident_bytes": tn.ResidentBytes(),
	}
}

// healthz serves GET /v1/healthz — pure liveness: the process answers.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

// readyz serves GET /v1/readyz — readiness for load-balancer rotation:
// the default tenant answers estimates and admission control has spare
// capacity. 503 keeps new traffic away without killing the replica
// (that is healthz's job).
func (h *Handler) readyz(w http.ResponseWriter, r *http.Request) {
	if h.limiter.Saturated() {
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"admission control saturated")
		return
	}
	if _, err := h.tenantFor(r.Context(), h.defaultTenant); err != nil {
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"default tenant not loaded: "+err.Error())
		return
	}
	writeJSON(w, map[string]any{"status": "ready"})
}

// tenantsSummary is the /v1/stats "tenants" section: per-tenant request
// and shed totals plus sub-estimate cache hit ratio, for every tenant
// that has seen traffic. The default tenant's summary is the live
// corpus; other tenants report their caches only while resident.
func (h *Handler) tenantsSummary() map[string]any {
	h.tenantMu.Lock()
	names := make([]string, 0, len(h.tenantStats))
	for name := range h.tenantStats {
		names = append(names, name)
	}
	h.tenantMu.Unlock()
	sort.Strings(names)
	out := make(map[string]any, len(names))
	for _, name := range names {
		tm := h.tenantMetricsFor(name)
		entry := map[string]any{
			"requests": tm.requests.Value(),
			"shed":     tm.shed.Value(),
		}
		var sum *core.Summary
		if name == h.defaultTenant {
			sum = h.c.Summary()
		} else if h.flt != nil {
			if tn, ok := h.flt.Peek(name); ok {
				sum = tn.Summary
			}
		}
		if sum != nil {
			st := sum.SubCacheStats()
			ratio := 0.0
			if st.Hits+st.Misses > 0 {
				ratio = float64(st.Hits) / float64(st.Hits+st.Misses)
			}
			entry["subcache_hit_ratio"] = ratio
			entry["backend"] = sum.StoreKind()
			entry["resident_bytes"] = sum.ResidentBytes()
		}
		out[name] = entry
	}
	return out
}

// writeFleetError maps fleet-side errors onto the JSON envelope.
func writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrBadName):
		writeError(w, http.StatusBadRequest, "bad_tenant", err.Error())
	case errors.Is(err, fleet.ErrUnknownTenant):
		writeError(w, http.StatusNotFound, "unknown_tenant", err.Error())
	case errors.Is(err, fleet.ErrNoShards):
		// Every shard missed its deadline: the service is up but this
		// tenant cannot answer right now.
		writeError(w, http.StatusServiceUnavailable, "no_shards", err.Error())
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "canceled", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

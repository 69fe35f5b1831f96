package serve

import (
	"context"
	"errors"
	"net/http"
	"sort"

	"treelattice/internal/core"
	"treelattice/internal/fleet"
	"treelattice/internal/obs"
)

// DefaultTenant is the name the legacy single-tenant routes answer as:
// /v1/estimate and /v1/t/default/estimate are the same corpus.
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

// tenantFor resolves a tenant name to the summary that answers for it:
// the default tenant is the live corpus behind the legacy routes,
// everything else loads through the fleet registry (when one is
// configured).
func (h *Handler) tenantFor(ctx context.Context, name string) (*core.Summary, error) {
	if err := fleet.ValidateName(name); err != nil {
		return nil, err
	}
	if name == DefaultTenant {
		return h.c.Summary(), nil
	}
	if h.flt == nil {
		return nil, fleet.ErrUnknownTenant
	}
	return h.flt.Acquire(ctx, name)
}

// admitTenant applies tenant's admission quota to one estimate or query
// request, counting it under tenant.<tenant>.requests or .shed. A shed
// request gets its 429 here and admitTenant reports false; an admitted
// one holds a quota slot the caller releases with h.quota.Release.
func (h *Handler) admitTenant(w http.ResponseWriter, tenant string) bool {
	tm := h.tenantMetricsFor(tenant)
	if !h.quota.Acquire(tenant) {
		tm.shed.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "shed",
			"tenant over its admission quota; retry later")
		return false
	}
	tm.requests.Inc()
	return true
}

// tenantEstimate serves GET /v1/t/{tenant}/estimate: the multi-tenant
// twin of /v1/estimate. It resolves the tenant and answers through the
// same answerEstimate, which adds the tenant's quota and name.
func (h *Handler) tenantEstimate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	sum, err := h.tenantFor(r.Context(), name)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	h.answerEstimate(w, r, name, sum)
}

// tenantReload serves POST /v1/t/{tenant}/reload: hot-swap the tenant's
// freshly published snapshot into the registry without evicting the
// serving copy — in-flight estimates finish against the old tenant,
// new requests see the new one. The fleet-side half of zero-downtime
// ingest: a writer replica refreezes, then the serving fleet reloads.
func (h *Handler) tenantReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if err := fleet.ValidateName(name); err != nil {
		writeFleetError(w, err)
		return
	}
	if name == DefaultTenant {
		writeError(w, http.StatusConflict, "reload_failed",
			"default tenant is the live corpus; it publishes epochs, not snapshot reloads")
		return
	}
	if h.flt == nil {
		writeFleetError(w, fleet.ErrUnknownTenant)
		return
	}
	sum, err := h.flt.Reload(r.Context(), name)
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
	writeJSON(w, map[string]any{
		"tenant":     name,
		"reloaded":   true,
		"generation": h.flt.Generation(name),
		"backend":    sum.StoreKind(),
	})
}

// tenantStatsEndpoint serves GET /v1/t/{tenant}/stats: the tenant's
// summary shape, traffic counters, and answer-cache effectiveness. Its "epoch" is the corpus's RCU epoch for the default
// tenant and the registry generation for a fleet tenant, whose
// snapshot publishes no epochs.
func (h *Handler) tenantStatsEndpoint(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	sum, err := h.tenantFor(r.Context(), name)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	var epoch uint64
	if ep, ok := sum.Source().(*core.Epoch); ok {
		epoch = ep.ID
	} else if h.flt != nil {
		epoch = h.flt.Generation(name)
	}
	tm := h.tenantMetricsFor(name)
	writeJSON(w, map[string]any{
		"tenant":         name,
		"epoch":          epoch,
		"k":              sum.K(),
		"patterns":       sum.Patterns(),
		"bytes":          sum.SizeBytes(),
		"backend":        sum.StoreKind(),
		"resident_bytes": sum.ResidentBytes(),
		"requests":       tm.requests.Value(),
		"shed":           tm.shed.Value(),
		"in_flight":      h.quota.InFlight(name),
		"subcache":       h.subcacheSummary(sum),
	})
}

// tenantsEndpoint serves GET /v1/tenants: residence and churn of the
// fleet registry, plus per-tenant backend kind and resident footprint
// for every loaded tenant (and always the default tenant).
func (h *Handler) tenantsEndpoint(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"default": DefaultTenant}
	tenants := map[string]any{DefaultTenant: tenantShape(h.c.Summary())}
	if h.flt != nil {
		names := h.flt.Resident()
		resp["resident"] = names
		resp["registry"] = h.flt.Stats()
		for _, name := range names {
			if sum, ok := h.flt.Peek(name); ok {
				tenants[name] = tenantShape(sum)
			}
		}
	} else {
		resp["resident"] = []string{DefaultTenant}
	}
	resp["tenants"] = tenants
	writeJSON(w, resp)
}

// tenantShape is the /v1/tenants per-tenant entry: which backend the
// tenant's summary runs on and how many bytes it keeps resident.
func tenantShape(sum *core.Summary) map[string]any {
	return map[string]any{
		"backend":        sum.StoreKind(),
		"resident_bytes": sum.ResidentBytes(),
	}
}

// healthz serves GET /v1/healthz — pure liveness: the process answers.
func (h *Handler) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok"})
}

// readyz serves GET /v1/readyz — readiness for load-balancer rotation:
// admission control has spare capacity. 503 keeps new traffic away
// without killing the replica (that is healthz's job).
func (h *Handler) readyz(w http.ResponseWriter, _ *http.Request) {
	if h.limiter.Saturated() {
		writeError(w, http.StatusServiceUnavailable, "not_ready",
			"admission control saturated")
		return
	}
	writeJSON(w, map[string]any{"status": "ready"})
}

// tenantsSummary is the /v1/stats "tenants" section: per-tenant request
// and shed totals plus answer-cache hit ratio, for every tenant
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
		if name == DefaultTenant {
			sum = h.c.Summary()
		} else if h.flt != nil {
			if resident, ok := h.flt.Peek(name); ok {
				sum = resident
			}
		}
		if sum != nil {
			entry["subcache_hit_ratio"] = h.subcacheSummary(sum)["hit_ratio"]
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
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "canceled", err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"treelattice/internal/core"
)

// MaxQueryLimit caps how many match tuples one /v1/query response may
// materialize; a larger limit parameter is clamped, never an error.
const MaxQueryLimit = 1000

// DefaultQueryLimit is the materialization cap when the client sends no
// limit parameter (count-only requests materialize nothing regardless).
const DefaultQueryLimit = 100

// calibrationBounds bucket the measured/predicted candidate ratio: 1.0
// is a perfect cost model, powers of two either side grade how far off
// it runs. Ratios are dimensionless; the histogram's "seconds" plumbing
// carries them unchanged.
var calibrationBounds = []float64{0.0625, 0.125, 0.25, 0.5, 1, 2, 4, 8, 16}

// queryParams is one /v1/query request's decoded parameters, shared by
// the default-tenant and tenant-scoped handlers and both verbs.
type queryParams struct {
	qs        string
	method    core.Method
	limit     int
	countOnly bool
	naive     bool
}

// queryBody is the POST /v1/query JSON body. Fields mirror the GET
// parameters; absent fields fall back to the URL query string, so a
// POST with an empty body behaves exactly like the GET.
type queryBody struct {
	Q         string `json:"q"`
	Method    string `json:"method"`
	Limit     *int   `json:"limit"`
	CountOnly *bool  `json:"count"`
	Naive     *bool  `json:"naive"`
}

// parseQueryParams decodes a query request. GET reads URL parameters;
// POST overlays a JSON body on top of them. The limit is clamped to
// [0, MaxQueryLimit] and defaults to DefaultQueryLimit.
func parseQueryParams(r *http.Request) (queryParams, error) {
	uq := r.URL.Query()
	p := queryParams{
		qs:        uq.Get("q"),
		method:    core.Method(uq.Get("method")),
		limit:     DefaultQueryLimit,
		countOnly: boolParam(uq.Get("count")),
		naive:     boolParam(uq.Get("naive")),
	}
	if v := uq.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, errors.New("limit must be a non-negative integer")
		}
		p.limit = n
	}
	if r.Method == http.MethodPost && r.Body != nil {
		data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 1<<20))
		if err != nil {
			return p, errors.New("reading body: " + err.Error())
		}
		var b queryBody
		if len(bytes.TrimSpace(data)) > 0 {
			if err := json.Unmarshal(data, &b); err != nil {
				return p, errors.New("bad JSON body: " + err.Error())
			}
		}
		if b.Q != "" {
			p.qs = b.Q
		}
		if b.Method != "" {
			p.method = core.Method(b.Method)
		}
		if b.Limit != nil {
			if *b.Limit < 0 {
				return p, errors.New("limit must be a non-negative integer")
			}
			p.limit = *b.Limit
		}
		if b.CountOnly != nil {
			p.countOnly = *b.CountOnly
		}
		if b.Naive != nil {
			p.naive = *b.Naive
		}
	}
	if p.limit > MaxQueryLimit {
		p.limit = MaxQueryLimit
	}
	if p.countOnly {
		p.limit = 0
	}
	return p, nil
}

func boolParam(v string) bool {
	return v == "1" || v == "true" || v == "yes"
}

// queryResponse is the /v1/query JSON answer.
type queryResponse struct {
	Tenant      string            `json:"tenant,omitempty"`
	Query       string            `json:"query"`
	Count       int64             `json:"count"`
	Matches     []core.QueryMatch `json:"matches,omitempty"`
	Truncated   bool              `json:"truncated,omitempty"`
	Degraded    bool              `json:"degraded,omitempty"`
	DocsScanned int               `json:"docs_scanned"`
	Candidates  int64             `json:"candidates"`
	Plan        []int32           `json:"plan"`
	PlanMethod  string            `json:"plan_method,omitempty"`
	Predicted   float64           `json:"predicted_candidates,omitempty"`
	Calibration float64           `json:"calibration,omitempty"`
}

// runQuery parses and executes one twig query against sum, recording
// the execution and calibration metrics. The caller holds whatever lock
// pins sum and has already validated the method.
func (h *Handler) runQuery(r *http.Request, sum *core.Summary, p queryParams) (*queryResponse, error) {
	q, err := sum.ParseTwigQuery(p.qs)
	if err != nil {
		return nil, err
	}
	res, err := sum.ExecuteQueryContext(r.Context(), q, core.QueryOptions{
		Method:     p.method,
		Limit:      p.limit,
		NodeBudget: h.res.QueryNodeBudget,
		NaiveOrder: p.naive,
	})
	if err != nil {
		return nil, err
	}
	h.queries.Inc()
	h.queryCandidates.Add(uint64(res.Stats.Candidates))
	if res.Degraded {
		h.queryDegradedC.Inc()
	}
	if res.Fallback {
		h.queryFallback.Inc()
	}
	if res.Calibration > 0 {
		h.queryCalibration.Observe(res.Calibration)
	}
	return &queryResponse{
		Query:       p.qs,
		Count:       res.Count,
		Matches:     res.Matches,
		Truncated:   res.Truncated,
		Degraded:    res.Degraded,
		DocsScanned: res.DocsScanned,
		Candidates:  res.Stats.Candidates,
		Plan:        res.Plan.Order,
		PlanMethod:  string(res.PlanMethod),
		Predicted:   res.Plan.PredictedCandidates,
		Calibration: res.Calibration,
	}, nil
}

// query serves GET/POST /v1/query: planner-driven twig query execution
// against the default tenant's documents.
func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	h.answerQuery(w, r, "", h.c.Summary())
}

// tenantQuery serves GET/POST /v1/t/{tenant}/query: the multi-tenant
// twin of /v1/query. Tenants loaded from frozen snapshots carry no
// documents and answer 409 no_documents — they estimate, the corpus
// owner executes.
func (h *Handler) tenantQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	sum, err := h.tenantFor(r.Context(), name)
	if err != nil {
		writeFleetError(w, err)
		return
	}
	h.answerQuery(w, r, name, sum)
}

// answerQuery serves one query request against sum, from parameter
// decoding to response, for /v1/query (tenant empty) and
// /v1/t/{tenant}/query. A named tenant adds its admission quota and the
// "tenant" response field. The caller passes the summary it resolved so
// the whole request pins one epoch.
func (h *Handler) answerQuery(w http.ResponseWriter, r *http.Request, tenant string, sum *core.Summary) {
	p, err := parseQueryParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_query", err.Error())
		return
	}
	if p.qs == "" {
		writeError(w, http.StatusBadRequest, "bad_query", "missing q parameter")
		return
	}
	// Validate a requested planning method up front, like /v1/estimate:
	// a bogus method should 400 even when the query would not parse.
	if !p.naive && p.method != "" {
		if _, err := sum.LookupMethod(p.method); err != nil {
			writeCoreError(w, err)
			return
		}
	}
	if tenant != "" {
		if !h.admitTenant(w, tenant) {
			return
		}
		defer h.quota.Release(tenant)
	}
	resp, err := h.runQuery(r, sum, p)
	if errors.Is(err, core.ErrUnknownLabel) {
		// A label no document carries cannot match: zero matches, no scan.
		resp, err = &queryResponse{Query: p.qs, Plan: []int32{}}, nil
	}
	if err != nil {
		h.coreError(w, err)
		return
	}
	resp.Tenant = tenant
	writeJSON(w, resp)
}

// querySummary condenses the query-execution counters and the
// calibration histogram for /v1/stats; "fallback" counts the queries
// counted by enumeration because the product counter is not exact for
// them. A well-calibrated planner keeps
// p50 near 1.0; drift in either direction says the lattice statistics
// have diverged from the executor's real workload.
func (h *Handler) querySummary() map[string]any {
	snap := h.queryCalibration.Snapshot()
	return map[string]any{
		"executed":            h.queries.Value(),
		"degraded":            h.queryDegradedC.Value(),
		"fallback":            h.queryFallback.Value(),
		"candidates":          h.queryCandidates.Value(),
		"calibrated":          snap.Count,
		"calibration_p50":     snap.P50,
		"calibration_p95":     snap.P95,
		"calibration_buckets": snap.Buckets,
	}
}

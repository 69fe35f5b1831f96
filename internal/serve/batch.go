package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
)

// MaxBatchQueries bounds how many queries one batch request may carry.
// A batch occupies a single admission slot regardless of size, so the cap
// keeps one client from smuggling unbounded work past the limiter.
const MaxBatchQueries = 256

// maxBatchBodyBytes bounds the batch request body. 256 twig queries fit
// comfortably in far less; anything beyond this is malformed or hostile.
const maxBatchBodyBytes = 1 << 20

// batchSizeBounds are the batch-size histogram buckets — powers of two up
// to MaxBatchQueries, so the distribution shows whether clients actually
// batch or send singletons through the batch endpoint.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// batchEntry is one requested query: either a bare JSON string ("a(b)")
// or an object {"q": "a(b)", "method": "fix-sized"} overriding the
// batch-level method for this item.
type batchEntry struct {
	Q      string `json:"q"`
	Method string `json:"method"`
}

// UnmarshalJSON accepts both entry forms.
func (e *batchEntry) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &e.Q)
	}
	type plain batchEntry // drop the method set to avoid recursion
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if p.Q == "" {
		return fmt.Errorf("batch entry object missing \"q\"")
	}
	*e = batchEntry(p)
	return nil
}

type batchRequest struct {
	Queries []batchEntry `json:"queries"`
	// Method applies to entries without their own; empty means
	// recursive+voting.
	Method string `json:"method"`
}

// batchItem is the per-query result envelope. Exactly one of Estimate or
// Error is present: a failed item carries the same code vocabulary as the
// single-query endpoint's error envelope. Method always echoes the method
// that answered (or was asked, for failed items) — with per-item
// overrides in play, positional results alone no longer identify it.
type batchItem struct {
	Query    string   `json:"query"`
	Estimate *float64 `json:"estimate,omitempty"`
	Method   string   `json:"method"`
	Degraded bool     `json:"degraded,omitempty"`
	Error    string   `json:"error,omitempty"`
	Code     string   `json:"code,omitempty"`
}

type batchResponse struct {
	Method  string      `json:"method"`
	Results []batchItem `json:"results"`
}

// estimateBatch serves POST /v1/estimate/batch: many twig queries, one
// admission slot, one worker-pool fan-out sharing the summary's
// answer caches. Results are positional with per-item error
// envelopes — one unparseable query does not fail its neighbors.
func (h *Handler) estimateBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too_large", "batch body too large")
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", "malformed batch request: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "bad_request", "empty batch")
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		writeError(w, http.StatusBadRequest, "batch_too_large",
			"batch exceeds the per-request query cap")
		return
	}
	method := core.MethodRecursiveVoting
	if req.Method != "" {
		method = core.Method(req.Method)
	}

	sum := h.c.Summary()
	if _, err := sum.LookupMethod(method); err != nil {
		writeCoreError(w, err)
		return
	}
	// Resolve and validate each entry's effective method. A bad per-item
	// override fails that item alone, mirroring per-item parse errors.
	items := make([]batchItem, len(req.Queries))
	for i, entry := range req.Queries {
		m := method
		if entry.Method != "" {
			m = core.Method(entry.Method)
			if _, err := sum.LookupMethod(m); err != nil {
				_, code := coreErrorCode(err)
				items[i].Error = err.Error()
				items[i].Code = code
			}
		}
		items[i].Query = entry.Q
		items[i].Method = string(m)
	}
	h.batchSizes.Observe(float64(len(req.Queries)))

	// Parse every entry; only parsed queries reach the worker pool.
	// pending[j] remembers which item slot query j fills.
	var (
		pending     []int
		queries     []labeltree.Pattern
		itemMethods []core.Method
	)
	for i, entry := range req.Queries {
		if items[i].Error != "" {
			continue // failed method validation above
		}
		q, err := sum.ParseQuery(entry.Q)
		if errors.Is(err, core.ErrUnknownLabel) {
			// Same semantics as the single endpoint: a label no document
			// carries cannot match, so the true selectivity is zero.
			zero := 0.0
			items[i].Estimate = &zero
			continue
		}
		if err != nil {
			_, code := coreErrorCode(err)
			items[i].Error = err.Error()
			items[i].Code = code
			continue
		}
		pending = append(pending, i)
		queries = append(queries, q)
		itemMethods = append(itemMethods, core.Method(items[i].Method))
	}

	if len(queries) > 0 {
		results, err := sum.EstimateBatchContext(r.Context(), queries, method,
			core.BatchOptions{DisableFallback: h.res.DisableFallback, Methods: itemMethods})
		if err != nil {
			h.coreError(w, err)
			return
		}
		for j, res := range results {
			i := pending[j]
			if res.Err != nil {
				status, code := coreErrorCode(res.Err)
				if status == http.StatusGatewayTimeout {
					h.timeouts.Inc()
				}
				items[i].Error = res.Err.Error()
				items[i].Code = code
				continue
			}
			e := res.Estimate
			items[i].Estimate = &e
			items[i].Method = string(res.Method)
			if res.Degraded {
				items[i].Degraded = true
				h.degraded.Inc()
			}
			h.observeAnswer(res.DegradedEstimate)
		}
	}
	writeJSON(w, batchResponse{Method: string(method), Results: items})
}

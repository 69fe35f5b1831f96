package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"treelattice/internal/corpus"
)

func postBatch(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	return do(t, "POST", url+"/v1/estimate/batch", body)
}

func TestBatchEstimate(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)

	code, out := postBatch(t, srv.URL,
		`{"queries": ["laptop(brand,price)", "a((", "nosuchlabel", "laptop(brand,price)"]}`)
	if code != 200 {
		t.Fatalf("batch: %d %v", code, out)
	}
	results := out["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	first := results[0].(map[string]any)
	if first["query"] != "laptop(brand,price)" || first["estimate"].(float64) != 2 {
		t.Fatalf("item 0: %v", first)
	}
	bad := results[1].(map[string]any)
	if bad["code"] != "bad_query" || bad["error"] == "" {
		t.Fatalf("item 1 not a per-item bad_query envelope: %v", bad)
	}
	if _, hasEst := bad["estimate"]; hasEst {
		t.Fatalf("failed item carries an estimate: %v", bad)
	}
	// Unknown labels answer zero, matching the single endpoint.
	unknown := results[2].(map[string]any)
	if unknown["estimate"].(float64) != 0 {
		t.Fatalf("item 2: %v", unknown)
	}
	last := results[3].(map[string]any)
	if last["estimate"].(float64) != 2 {
		t.Fatalf("item 3: %v", last)
	}

	// Batch answers must equal the single endpoint's, per method.
	for _, method := range []string{"recursive", "recursive+voting", "fix-sized"} {
		q := "computer(laptops(laptop(brand,price)))"
		_, single := do(t, "GET", srv.URL+"/v1/estimate?q="+q+"&method="+url.QueryEscape(method), "")
		code, out := postBatch(t, srv.URL,
			fmt.Sprintf(`{"queries": [%q], "method": %q}`, q, method))
		if code != 200 {
			t.Fatalf("%s: %d %v", method, code, out)
		}
		item := out["results"].([]any)[0].(map[string]any)
		if item["estimate"] != single["estimate"] {
			t.Fatalf("%s: batch %v != single %v", method, item["estimate"], single["estimate"])
		}
	}
}

func TestBatchErrors(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)

	for _, tc := range []struct {
		body     string
		wantCode int
		wantErr  string
	}{
		{`{"queries": []}`, 400, "bad_request"},
		{`not json`, 400, "bad_request"},
		{`{"queries": ["laptop"], "method": "bogus"}`, 400, "unknown_method"},
		{`{"queries": [` + strings.Repeat(`"laptop",`, MaxBatchQueries) + `"laptop"]}`, 400, "batch_too_large"},
	} {
		code, out := postBatch(t, srv.URL, tc.body)
		if code != tc.wantCode || out["code"] != tc.wantErr {
			t.Fatalf("body %.40q: got %d %v, want %d %s", tc.body, code, out, tc.wantCode, tc.wantErr)
		}
	}

	// Wrong verb gets the JSON 405 envelope like every other endpoint.
	code, out := do(t, "GET", srv.URL+"/v1/estimate/batch", "")
	if code != 405 || out["code"] != "method_not_allowed" {
		t.Fatalf("GET batch: %d %v", code, out)
	}
}

// TestBatchStats: the batch endpoint feeds the size histogram and the
// shared sub-estimate cache counters surfaced in /v1/stats.
func TestBatchStats(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)

	queries := make([]string, 8)
	for i := range queries {
		queries[i] = `"computer(laptops(laptop(brand,price)),desktops)"`
	}
	body := `{"queries": [` + strings.Join(queries, ",") + `], "method": "recursive"}`
	if code, out := postBatch(t, srv.URL, body); code != 200 {
		t.Fatalf("batch: %d %v", code, out)
	}

	code, out := do(t, "GET", srv.URL+"/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats: %d %v", code, out)
	}
	batch := out["batch"].(map[string]any)
	if batch["requests"].(float64) != 1 || batch["total_queries"].(float64) != 8 {
		t.Fatalf("batch stats: %v", batch)
	}
	if _, ok := batch["size_buckets"].([]any); !ok {
		t.Fatalf("batch stats missing size histogram: %v", batch)
	}
	sub := out["subcache"].(map[string]any)
	for _, field := range []string{"hits", "misses", "evictions", "entries", "hit_ratio"} {
		if _, ok := sub[field]; !ok {
			t.Fatalf("subcache stats missing %q: %v", field, sub)
		}
	}

	// The per-method subcache counters reach the registry too.
	code, out = do(t, "GET", srv.URL+"/v1/metrics", "")
	if code != 200 {
		t.Fatalf("metrics: %d %v", code, out)
	}
	counters := out["counters"].(map[string]any)
	if _, ok := counters["subcache.recursive.hits"]; !ok {
		t.Fatalf("registry missing subcache counters: %v", counters)
	}
}

// TestServeReadOnlyCorpus: a handler over corpus.OpenReadOnly serves
// estimates (single and batch) but answers document mutations with 409
// frozen.
func TestServeReadOnlyCorpus(t *testing.T) {
	dir := t.TempDir()
	c, err := corpus.Create(dir, corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("sample", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	ro, err := corpus.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ro.Summary().StoreKind(); got != "frozen" {
		t.Fatalf("OpenReadOnly store kind = %q, want frozen", got)
	}
	srv := httptest.NewServer(NewHandler(ro))
	defer srv.Close()

	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)", "")
	if code != 200 || out["estimate"].(float64) != 2 {
		t.Fatalf("frozen estimate: %d %v", code, out)
	}
	code, out = postBatch(t, srv.URL, `{"queries": ["laptop(brand,price)"]}`)
	if code != 200 || out["results"].([]any)[0].(map[string]any)["estimate"].(float64) != 2 {
		t.Fatalf("frozen batch: %d %v", code, out)
	}
	code, out = do(t, "POST", srv.URL+"/v1/docs/extra", doc)
	if code != http.StatusConflict || out["code"] != "frozen" {
		t.Fatalf("frozen add: %d %v", code, out)
	}
	code, out = do(t, "DELETE", srv.URL+"/v1/docs/sample", "")
	if code != http.StatusConflict || out["code"] != "frozen" {
		t.Fatalf("frozen remove: %d %v", code, out)
	}
}

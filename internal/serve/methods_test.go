package serve

import (
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"treelattice/internal/core"
)

// TestMethodsEndpoint: GET /v1/methods lists all seven estimation
// methods in their fixed order, each with exactly the declared budget,
// document, fallback and description, and names the default.
func TestMethodsEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	code, out := do(t, "GET", srv.URL+"/v1/methods", "")
	if code != http.StatusOK {
		t.Fatalf("methods: %d %v", code, out)
	}
	if out["default"] != string(core.MethodRecursiveVoting) {
		t.Fatalf("default = %v", out["default"])
	}
	type entry struct {
		Name           string `json:"name"`
		Budgeted       bool   `json:"budgeted"`
		NeedsDocuments bool   `json:"needs_documents"`
		Fallback       string `json:"fallback"`
		Description    string `json:"description"`
	}
	want := []entry{
		{"recursive", false, false, "fix-sized",
			"recursive leaf-pair decomposition (Section 3.2)"},
		{"recursive+voting", false, false, "fix-sized",
			"recursive decomposition averaging all leaf pairs (Section 3.2, voting)"},
		{"fix-sized", false, false, "",
			"preorder K-subtree cover with telescoping product (Section 3.3)"},
		{"markov", false, true, "",
			"Markov path table, twigs via root-to-leaf path independence (Lemma 4 baseline)"},
		{"treesketches", false, true, "",
			"TreeSketches graph synopsis per document, estimates summed (comparison baseline)"},
		{"sampling", true, true, "fix-sized",
			"bounded random probes through the twigjoin engine (Alley-style cross-check)"},
		{"ensemble", true, true, "recursive+voting",
			"recursive+voting answered, sampling cross-checked concurrently; flags divergence ≥ 4"},
	}
	raw, err := json.Marshal(out["methods"])
	if err != nil {
		t.Fatal(err)
	}
	var got []entry
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decoding methods list: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/methods entries:\n got %+v\nwant %+v", got, want)
	}
	names := core.RegisteredMethods()
	if len(names) != len(want) {
		t.Fatalf("RegisteredMethods() = %v, want %d methods", names, len(want))
	}
	for i, m := range names {
		if string(m) != want[i].Name {
			t.Errorf("RegisteredMethods()[%d] = %q, want %q", i, m, want[i].Name)
		}
	}

	// Method not allowed on the route still gets an envelope.
	if code, _ := do(t, "POST", srv.URL+"/v1/methods", "{}"); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/methods: %d", code)
	}
}

// TestUnknownMethodEnumerates: the estimate endpoint's unknown_method
// error names the registered methods so clients can self-correct.
func TestUnknownMethodEnumerates(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand)&method=bogus", "")
	if code != http.StatusBadRequest || out["code"] != "unknown_method" {
		t.Fatalf("got %d %v", code, out)
	}
	msg, _ := out["error"].(string)
	for _, m := range []string{"sampling", "ensemble", "markov"} {
		if !strings.Contains(msg, m) {
			t.Errorf("error %q does not enumerate %q", msg, m)
		}
	}
}

// TestEstimateMethodsServeAll: every registered method answers the single
// estimate endpoint on a corpus-backed summary.
func TestEstimateMethodsServeAll(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	for _, m := range core.RegisteredMethods() {
		code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)&method="+url.QueryEscape(string(m)), "")
		if code != http.StatusOK {
			t.Fatalf("method %s: %d %v", m, code, out)
		}
		if out["method"] != string(m) {
			t.Errorf("method %s echoed as %v", m, out["method"])
		}
		if _, ok := out["estimate"].(float64); !ok {
			t.Errorf("method %s returned no estimate: %v", m, out)
		}
	}
}

// TestEnsembleResponseAndStats: the ensemble annotates its response with
// the cross-check verdict, and /v1/stats carries the running counters.
func TestEnsembleResponseAndStats(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)&method=ensemble", "")
	if code != http.StatusOK {
		t.Fatalf("ensemble estimate: %d %v", code, out)
	}
	if _, ok := out["cross_estimate"].(float64); !ok {
		t.Fatalf("no cross_estimate in %v", out)
	}
	if div, ok := out["divergence"].(float64); !ok || div < 1 {
		t.Fatalf("divergence = %v", out["divergence"])
	}
	if _, ok := out["divergent"].(bool); !ok {
		t.Fatalf("no divergent flag in %v", out)
	}

	code, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ens, ok := stats["ensemble"].(map[string]any)
	if !ok {
		t.Fatalf("no ensemble section in stats: %v", stats)
	}
	if ens["checked"].(float64) < 1 {
		t.Errorf("ensemble.checked = %v, want >= 1", ens["checked"])
	}
}

// TestBatchPerItemMethod: batch entries may be bare strings or objects
// carrying a per-item method override; every result echoes the method
// that answered it.
func TestBatchPerItemMethod(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	code, out := postBatch(t, srv.URL, `{
		"queries": [
			"laptop(brand)",
			{"q": "laptop(brand,price)", "method": "fix-sized"},
			{"q": "laptop(price)", "method": "sampling"},
			{"q": "laptop(brand)", "method": "nope"}
		],
		"method": "recursive"
	}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, out)
	}
	results := out["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	wantMethods := []string{"recursive", "fix-sized", "sampling", "nope"}
	for i, r := range results {
		item := r.(map[string]any)
		if item["method"] != wantMethods[i] {
			t.Errorf("item %d method = %v, want %s", i, item["method"], wantMethods[i])
		}
	}
	for i := 0; i < 3; i++ {
		item := results[i].(map[string]any)
		if _, ok := item["estimate"].(float64); !ok {
			t.Errorf("item %d has no estimate: %v", i, item)
		}
	}
	bad := results[3].(map[string]any)
	if bad["code"] != "unknown_method" {
		t.Errorf("unknown per-item method: %v", bad)
	}
	if _, ok := bad["estimate"]; ok {
		t.Errorf("failed item carries an estimate: %v", bad)
	}
}

// TestBatchEnsembleFields: ensemble items in a batch carry the
// cross-check verdict like the single endpoint.
func TestBatchEnsembleFields(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	code, out := postBatch(t, srv.URL,
		`{"queries": [{"q": "laptop(brand,price)", "method": "ensemble"}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: %d %v", code, out)
	}
	item := out["results"].([]any)[0].(map[string]any)
	if item["method"] != "ensemble" {
		t.Fatalf("method = %v", item["method"])
	}
	if _, ok := item["cross_estimate"].(float64); !ok {
		t.Fatalf("no cross_estimate: %v", item)
	}
	if div, ok := item["divergence"].(float64); !ok || div < 1 {
		t.Fatalf("divergence = %v", item["divergence"])
	}
}

// TestEnsembleVerdictOnEveryAnswer: every ensemble answer carries its
// cross-check verdict, a repeated query's included, on all three
// estimate routes, and ensemble.checked counts each checked answer. The
// default tenant serves the tenant route: the ensemble's sampling
// cross-check needs documents, which a fleet snapshot tenant lacks.
func TestEnsembleVerdictOnEveryAnswer(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	const q = "laptops(laptop(brand,price))"
	routes := []struct {
		name string
		send func() map[string]any
	}{
		{"/v1/estimate", func() map[string]any {
			_, out := do(t, "GET", srv.URL+"/v1/estimate?method=ensemble&q="+q, "")
			return out
		}},
		{"/v1/t/default/estimate", func() map[string]any {
			_, out := do(t, "GET", srv.URL+"/v1/t/default/estimate?method=ensemble&q="+q, "")
			return out
		}},
		{"/v1/estimate/batch", func() map[string]any {
			_, out := postBatch(t, srv.URL, `{"queries": ["`+q+`"], "method": "ensemble"}`)
			return out["results"].([]any)[0].(map[string]any)
		}},
	}
	for _, route := range routes {
		before := decodeMetrics(t, srv.URL).Counters["ensemble.checked"]
		for i := 1; i <= 2; i++ {
			out := route.send()
			for _, field := range []string{"cross_estimate", "divergence", "divergent"} {
				if _, ok := out[field]; !ok {
					t.Errorf("%s answer %d has no %s: %v", route.name, i, field, out)
				}
			}
		}
		after := decodeMetrics(t, srv.URL).Counters["ensemble.checked"]
		if after-before != 2 {
			t.Errorf("%s: ensemble.checked rose by %d over two answers, want 2", route.name, after-before)
		}
	}
}

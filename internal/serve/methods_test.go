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

// TestMethodsEndpoint: GET /v1/methods lists all five estimation
// methods in their fixed order, each with exactly the declared document,
// fallback and description fields, and names the default.
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
		NeedsDocuments bool   `json:"needs_documents"`
		Fallback       string `json:"fallback"`
		Description    string `json:"description"`
	}
	want := []entry{
		{"recursive", false, "fix-sized",
			"recursive leaf-pair decomposition (Section 3.2)"},
		{"recursive+voting", false, "fix-sized",
			"recursive decomposition averaging all leaf pairs (Section 3.2, voting)"},
		{"fix-sized", false, "",
			"preorder K-subtree cover with telescoping product (Section 3.3)"},
		{"markov", true, "",
			"Markov path table, twigs via root-to-leaf path independence (Lemma 4 baseline)"},
		{"treesketches", true, "",
			"TreeSketches graph synopsis per document, estimates summed (comparison baseline)"},
	}
	raw, err := json.Marshal(out["methods"])
	if err != nil {
		t.Fatal(err)
	}
	var got []entry
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("decoding methods list: %v", err)
	}
	var fields []map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		if len(f) > 4 {
			t.Errorf("/v1/methods entry %v has fields beyond name, needs_documents, fallback and description", f)
		}
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
	for _, m := range []string{"fix-sized", "treesketches", "markov"} {
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
			{"q": "laptop(price)", "method": "markov"},
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
	wantMethods := []string{"recursive", "fix-sized", "markov", "nope"}
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

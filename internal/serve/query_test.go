package serve

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/twigjoin"
)

// TestQueryEndpoint drives GET/POST /v1/query end to end: planned and
// naive executions, limits, count-only mode, descendant axes, and the
// zero-answer path for unknown labels.
func TestQueryEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}

	code, out := do(t, "GET", srv.URL+"/v1/query?q=//laptop(brand,price)", "")
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	if out["count"].(float64) != 2 {
		t.Fatalf("count = %v, want 2", out["count"])
	}
	matches := out["matches"].([]any)
	if len(matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(matches))
	}
	m0 := matches[0].(map[string]any)
	if m0["doc"] != "sample" {
		t.Fatalf("doc = %v, want sample", m0["doc"])
	}
	if nodes := m0["nodes"].([]any); len(nodes) != 3 {
		t.Fatalf("nodes = %v, want 3 bindings", nodes)
	}
	if out["plan_method"] == "" || out["plan"] == nil {
		t.Fatalf("missing plan info: %v", out)
	}

	// limit=1 truncates materialization but not the count.
	code, out = do(t, "GET", srv.URL+"/v1/query?q=//laptop(brand,price)&limit=1", "")
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("limited query: %d %v", code, out)
	}
	if len(out["matches"].([]any)) != 1 || out["truncated"] != true {
		t.Fatalf("limit=1 should truncate: %v", out)
	}

	// count=1 suppresses tuples entirely.
	code, out = do(t, "GET", srv.URL+"/v1/query?q=//laptop(brand,price)&count=1", "")
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("count-only: %d %v", code, out)
	}
	if _, has := out["matches"]; has {
		t.Fatalf("count-only should omit matches: %v", out)
	}

	// naive=1 skips planning; same count.
	code, out = do(t, "GET", srv.URL+"/v1/query?q=//laptop(brand,price)&naive=1", "")
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("naive: %d %v", code, out)
	}
	if _, has := out["plan_method"]; has {
		t.Fatalf("naive should carry no plan method: %v", out)
	}

	// POST body mirrors the GET parameters.
	code, out = do(t, "POST", srv.URL+"/v1/query",
		`{"q": "//laptop(brand,price)", "count": true}`)
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("POST query: %d %v", code, out)
	}

	// Unknown label: zero matches without a scan.
	code, out = do(t, "GET", srv.URL+"/v1/query?q=//nosuchlabel", "")
	if code != http.StatusOK || out["count"].(float64) != 0 {
		t.Fatalf("unknown label: %d %v", code, out)
	}
}

// TestQueryEndpointErrors covers the envelope codes specific to the
// query route.
func TestQueryEndpointErrors(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}

	cases := []struct {
		name, method, url, body string
		status                  int
		code                    string
	}{
		{"missing q", "GET", "/v1/query", "", http.StatusBadRequest, "bad_query"},
		{"syntax", "GET", "/v1/query?q=laptop((", "", http.StatusBadRequest, "bad_query"},
		{"bad limit", "GET", "/v1/query?q=//laptop&limit=x", "", http.StatusBadRequest, "bad_query"},
		{"bad method", "GET", "/v1/query?q=//laptop&method=nope", "", http.StatusBadRequest, "unknown_method"},
		{"bad body", "POST", "/v1/query", "{", http.StatusBadRequest, "bad_query"},
		{"wrong verb", "DELETE", "/v1/query", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"unknown tenant", "GET", "/v1/t/ghost/query?q=//laptop", "", http.StatusNotFound, "unknown_tenant"},
	}
	for _, tc := range cases {
		code, out := do(t, tc.method, srv.URL+tc.url, tc.body)
		if code != tc.status || out["code"] != tc.code {
			t.Errorf("%s: got %d %v, want %d %s", tc.name, code, out, tc.status, tc.code)
		}
	}
}

// TestTenantQueryDefault exercises /v1/t/{tenant}/query against the
// default tenant (the live corpus) — the one tenant that always has
// documents bound.
func TestTenantQueryDefault(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}
	code, out := do(t, "GET", srv.URL+"/v1/t/default/query?q=//laptop(brand)", "")
	if code != http.StatusOK {
		t.Fatalf("tenant query: %d %v", code, out)
	}
	if out["tenant"] != "default" || out["count"].(float64) != 2 {
		t.Fatalf("tenant query answer: %v", out)
	}
}

// TestQueryStatsSection checks /v1/stats grows a query section fed by
// executions, including the calibration histogram and the count of
// queries the counter left to enumeration.
func TestQueryStatsSection(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}
	if code, out := do(t, "GET", srv.URL+"/v1/query?q=//laptop(brand,price)", ""); code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	code, out := do(t, "GET", srv.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	qs, ok := out["query"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing query section: %v", out["query"])
	}
	if qs["executed"].(float64) < 1 {
		t.Fatalf("executed = %v, want >= 1", qs["executed"])
	}
	if qs["calibrated"].(float64) < 1 {
		t.Fatalf("calibrated = %v, want >= 1 (planned run should observe ratio)", qs["calibrated"])
	}
	if qs["fallback"].(float64) != 0 {
		t.Fatalf("fallback = %v after a child-axis query, want 0", qs["fallback"])
	}
	// Same-label "//" siblings are one group of the product, but a "//"
	// brand that can also be the laptop's child brand is counted by
	// enumeration.
	code, out = do(t, "GET", srv.URL+"/v1/query?count=1&q=//laptops(//brand,//brand)", "")
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("group query: %d %v", code, out)
	}
	code, out = do(t, "GET", srv.URL+"/v1/query?count=1&q=//laptops(//brand,laptop(brand))", "")
	if code != http.StatusOK || out["count"].(float64) != 2 {
		t.Fatalf("fallback query: %d %v", code, out)
	}
	_, out = do(t, "GET", srv.URL+"/v1/stats", "")
	if got := out["query"].(map[string]any)["fallback"].(float64); got != 1 {
		t.Fatalf("fallback = %v, want 1", got)
	}
}

// TestQueryFallbackUncalibrated: a fallback request with a limit, one
// whose matches are counted by enumeration, is planned but reports no
// calibration and leaves query.calibration_ratio where it was: the
// plan's prediction does not model enumeration's candidates.
func TestQueryFallbackUncalibrated(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}
	code, out := do(t, "GET", srv.URL+"/v1/query?limit=3&q=//laptops(//brand,laptop(brand))", "")
	if code != http.StatusOK || out["count"].(float64) != 2 || len(out["matches"].([]any)) != 2 {
		t.Fatalf("fallback query: %d %v", code, out)
	}
	if out["plan_method"] != "fix-sized" || out["predicted_candidates"] == nil {
		t.Fatalf("fallback query with a limit was not planned: %v", out)
	}
	if v, has := out["calibration"]; has {
		t.Fatalf("fallback query reports calibration %v", v)
	}
	_, out = do(t, "GET", srv.URL+"/v1/stats", "")
	qs := out["query"].(map[string]any)
	if qs["fallback"].(float64) != 1 || qs["calibrated"].(float64) != 0 {
		t.Fatalf("stats after one fallback query: fallback %v, calibrated %v; want 1, 0", qs["fallback"], qs["calibrated"])
	}
}

// TestQueryGroupBudgetDegrades: the subset DP of a same-label sibling
// group charges the node budget, so a count-only query whose 16 siblings
// share a few thousand candidates stops at the budget, degraded, instead
// of running 2^16 DP steps per candidate that no budget sees.
func TestQueryGroupBudgetDegrades(t *testing.T) {
	const budget = 1_000_000
	srv, _ := newResilientServer(t, ResilienceOptions{QueryNodeBudget: budget}, nil)
	wide := "<a>" + strings.Repeat("<b/>", 3000) + "</a>"
	if code, out := do(t, "POST", srv.URL+"/v1/docs/wide", wide); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}
	q := "//a(" + strings.TrimSuffix(strings.Repeat("b,", 16), ",") + ")"
	code, out := do(t, "GET", srv.URL+"/v1/query?count=1&q="+q, "")
	if code != http.StatusOK || out["degraded"] != true {
		t.Fatalf("group query under a %d budget: %d %v, want 200 degraded", budget, code, out)
	}
	if got := out["candidates"].(float64); got > budget {
		t.Fatalf("candidates = %v, over the %d budget", got, budget)
	}
}

// TestQueryCountOnlyUnplanned: a count-only request binds in stored order
// without planning, so it reports that order as its plan and no plan
// method, prediction or calibration; it still rejects an unknown method.
func TestQueryCountOnlyUnplanned(t *testing.T) {
	srv, _ := newServer(t)
	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("add: %d %v", code, out)
	}
	for _, url := range []string{
		"/v1/query?count=1&q=//laptop(brand,price)",
		"/v1/query?limit=0&method=recursive&q=//laptop(brand,price)",
	} {
		code, out := do(t, "GET", srv.URL+url, "")
		if code != http.StatusOK || out["count"].(float64) != 2 {
			t.Fatalf("%s: %d %v", url, code, out)
		}
		if plan := fmt.Sprint(out["plan"]); plan != "[0 1 2]" {
			t.Fatalf("%s: plan %s, want the stored order [0 1 2]", url, plan)
		}
		for _, field := range []string{"plan_method", "predicted_candidates", "calibration"} {
			if v, has := out[field]; has {
				t.Fatalf("%s: count-only answer carries %s = %v", url, field, v)
			}
		}
	}
	code, out := do(t, "GET", srv.URL+"/v1/query?count=1&method=bogus&q=//laptop(brand,price)", "")
	if code != http.StatusBadRequest || out["code"] != "unknown_method" {
		t.Fatalf("count-only with method=bogus: %d %v, want 400 unknown_method", code, out)
	}
}

// TestQueryLimitTuplesMatchEnumeration: over several documents, some
// without matches, a request with a limit, planned or naive=1, returns
// exactly the first tuples of enumerating the documents in order under
// the answer's plan, for fallback twigs too.
func TestQueryLimitTuplesMatchEnumeration(t *testing.T) {
	srv, c := newServer(t)
	docs := []string{
		"<computer><desktops/></computer>",
		doc,
		"<computer><laptops><laptop><brand/><brand/><price/></laptop></laptops></computer>",
		"<computer><laptops><brand/><laptop><brand/><price/><price/></laptop></laptops></computer>",
		doc,
	}
	for i, d := range docs {
		if code, out := do(t, "POST", fmt.Sprintf("%s/v1/docs/d%d", srv.URL, i), d); code != http.StatusCreated {
			t.Fatalf("add d%d: %d %v", i, code, out)
		}
	}
	sum := c.Summary()
	names := sum.Source().(core.DocNamer).DocNames()
	for _, qs := range []string{"//laptop(brand,price)", "//computer(//brand,//price)", "//laptops(//brand,laptop(brand))"} {
		q, err := sum.ParseTwigQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, naive := range []bool{false, true} {
			for _, limit := range []int{1, 2, 3, 5, 100} {
				url := fmt.Sprintf("%s/v1/query?q=%s&limit=%d&naive=%v", srv.URL, qs, limit, naive)
				code, out := do(t, "GET", url, "")
				if code != http.StatusOK {
					t.Fatalf("%s: %d %v", url, code, out)
				}
				var order []int32
				for _, v := range out["plan"].([]any) {
					order = append(order, int32(v.(float64)))
				}
				var want []string
				for i, tr := range c.Trees() {
					twigjoin.Enumerate(twigjoin.NewIndex(tr), q, order, func(m twigjoin.Match) bool {
						want = append(want, fmt.Sprint(names[i], m))
						return len(want) < limit
					})
					if len(want) == limit {
						break
					}
				}
				var got []string
				matches, _ := out["matches"].([]any)
				for _, m := range matches {
					mm := m.(map[string]any)
					var nodes []int32
					for _, v := range mm["nodes"].([]any) {
						nodes = append(nodes, int32(v.(float64)))
					}
					got = append(got, fmt.Sprint(mm["doc"], twigjoin.Match(nodes)))
				}
				if len(want) == 0 || !slices.Equal(got, want) {
					t.Fatalf("%s: tuples %v, enumeration %v", url, got, want)
				}
			}
		}
	}
}

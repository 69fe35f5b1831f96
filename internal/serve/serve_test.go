package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"treelattice/internal/corpus"
	"treelattice/internal/obs"
	"treelattice/internal/twigjoin"
)

const doc = `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/><price/></laptop></laptops></computer>`

func newServer(t *testing.T) (*httptest.Server, *corpus.Corpus) {
	t.Helper()
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	t.Cleanup(srv.Close)
	return srv, c
}

func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

func TestLifecycle(t *testing.T) {
	srv, _ := newServer(t)

	code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	if code != http.StatusCreated || out["added"] != "sample" {
		t.Fatalf("add: %d %v", code, out)
	}

	code, out = do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)", "")
	if code != 200 || out["estimate"].(float64) != 2 {
		t.Fatalf("estimate: %d %v", code, out)
	}

	code, out = do(t, "GET", srv.URL+"/v1/exact?q=laptop(brand,price)", "")
	if code != 200 || out["count"].(float64) != 2 {
		t.Fatalf("exact: %d %v", code, out)
	}

	code, out = do(t, "GET", srv.URL+"/v1/stats", "")
	if code != 200 || out["k"].(float64) != 3 {
		t.Fatalf("stats: %d %v", code, out)
	}
	docs := out["documents"].([]any)
	if len(docs) != 1 || docs[0] != "sample" {
		t.Fatalf("stats docs: %v", docs)
	}

	code, out = do(t, "DELETE", srv.URL+"/v1/docs/sample", "")
	if code != 200 || out["removed"] != "sample" {
		t.Fatalf("delete: %d %v", code, out)
	}
	code, out = do(t, "GET", srv.URL+"/v1/estimate?q=laptop", "")
	if code != 200 || out["estimate"].(float64) != 0 {
		t.Fatalf("estimate after delete: %d %v", code, out)
	}
}

// TestExplain: /v1/explain answers /v1/estimate's recursive+voting
// estimate, with a trace and a spread interval around that estimate.
func TestExplain(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	const q = "computer(laptops(laptop(brand,price)))"
	code, out := do(t, "GET", srv.URL+"/v1/explain?q="+q, "")
	if code != 200 {
		t.Fatalf("explain: %d %v", code, out)
	}
	est := out["estimate"].(float64)
	if est <= 0 {
		t.Fatalf("explain estimate: %v", out)
	}
	if _, ok := out["trace"]; !ok {
		t.Fatalf("explain missing trace: %v", out)
	}
	code, served := do(t, "GET", srv.URL+"/v1/estimate?method=recursive%2Bvoting&q="+q, "")
	if code != 200 || served["estimate"] != est {
		t.Fatalf("explain estimate %v, /v1/estimate answered %d %v", est, code, served)
	}
	lo, hi := out["spread_lo"].(float64), out["spread_hi"].(float64)
	if !(lo <= est && est <= hi) {
		t.Fatalf("estimate %v outside spread [%v, %v]", est, lo, hi)
	}
}

// TestExplainTraceStable: /v1/explain always runs the full
// decomposition, never the answer cache, so a decomposed query's trace is
// the same on the first call, on a repeat, and after /v1/estimate has
// cached the query's answer.
func TestExplainTraceStable(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	const q = "computer(laptops(laptop(brand,price)))" // size 6, K = 3
	trace := func(when string) map[string]any {
		t.Helper()
		code, out := do(t, "GET", srv.URL+"/v1/explain?q="+q, "")
		if code != 200 {
			t.Fatalf("explain %s: %d %v", when, code, out)
		}
		return out["trace"].(map[string]any)
	}
	first := trace("first")
	augs := first["Augmentations"].(float64)
	if augs == 0 || first["MaxDepth"].(float64) == 0 {
		t.Fatalf("first trace did not decompose: %v", first)
	}
	if lookups := first["MemoHits"].(float64) + first["LatticeHits"].(float64) + first["LatticeMisses"].(float64); lookups != 1+3*augs {
		t.Fatalf("%v lookups for %v augmentations: %v", lookups, augs, first)
	}
	if again := trace("again"); !reflect.DeepEqual(again, first) {
		t.Fatalf("repeated explain traced %v, first %v", again, first)
	}
	if code, out := do(t, "GET", srv.URL+"/v1/estimate?q="+q, ""); code != 200 {
		t.Fatalf("estimate: %d %v", code, out)
	}
	if after := trace("after an estimate"); !reflect.DeepEqual(after, first) {
		t.Fatalf("explain after an estimate traced %v, first %v", after, first)
	}
}

// TestRouteTable405: every path in the route table answers each verb it
// does not register with the JSON 405 envelope, and its Allow header
// lists the verbs the table registers on that path.
func TestRouteTable405(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c)
	srv := httptest.NewServer(h)
	defer srv.Close()
	allow := make(map[string][]string)
	for _, e := range h.endpoints {
		allow[e.path] = append(allow[e.path], e.verb)
	}
	concrete := strings.NewReplacer("{name}", "x", "{tenant}", "acme")
	for path, verbs := range allow {
		for _, verb := range []string{"GET", "POST", "PUT", "DELETE", "PATCH"} {
			if slices.Contains(verbs, verb) {
				continue
			}
			req, err := http.NewRequest(verb, srv.URL+concrete.Replace(path), nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: decoding: %v", verb, path, err)
			}
			want := strings.Join(verbs, ", ")
			if resp.StatusCode != http.StatusMethodNotAllowed || out["code"] != "method_not_allowed" || resp.Header.Get("Allow") != want {
				t.Errorf("%s %s: %d %v, Allow %q; want 405 method_not_allowed, Allow %q",
					verb, path, resp.StatusCode, out, resp.Header.Get("Allow"), want)
			}
		}
	}
}

func TestErrors(t *testing.T) {
	srv, _ := newServer(t)
	for _, tc := range []struct {
		method, path, body string
		wantCode           int
	}{
		{"GET", "/v1/estimate", "", 400},                       // missing q
		{"GET", "/v1/estimate?q=a((", "", 400},                 // bad query
		{"GET", "/v1/estimate?q=laptop&method=bogus", "", 400}, // bad method
		{"GET", "/v1/exact", "", 400},
		{"GET", "/v1/explain", "", 400},
		{"GET", "/v1/nope", "", 404},
		{"POST", "/v1/docs/bad", "<a><b>", 400},     // malformed XML
		{"DELETE", "/v1/docs/missing", "", 404},     // unknown doc
		{"PUT", "/v1/docs/x", "<a/>", 405},          // bad method
		{"PUT", "/v1/estimate", "", 405},            // bad method on query route
		{"POST", "/v1/docs/%2e%2e", "<a/>", 400},    // traversal name
		{"POST", "/v1/docs/sample", doc + doc, 400}, // two roots
	} {
		code, out := do(t, tc.method, srv.URL+tc.path, tc.body)
		if code != tc.wantCode {
			t.Errorf("%s %s: code %d (%v), want %d", tc.method, tc.path, code, out, tc.wantCode)
		}
		if code >= 400 {
			if _, ok := out["error"]; !ok {
				t.Errorf("%s %s: error response missing error field: %v", tc.method, tc.path, out)
			}
			if s, ok := out["code"].(string); !ok || s == "" {
				t.Errorf("%s %s: error response missing code field: %v", tc.method, tc.path, out)
			}
		}
	}
}

// TestErrorCodes pins the machine-readable code per failure class.
// bigGroup is laptop with one more brand child than
// twigjoin.MaxSiblingGroup allows.
var bigGroup = "laptop(" + strings.TrimSuffix(strings.Repeat("brand,", twigjoin.MaxSiblingGroup+1), ",") + ")"

func TestErrorCodes(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	for _, tc := range []struct {
		method, path, body string
		wantCode           string
	}{
		{"GET", "/v1/estimate?q=a((", "", "bad_query"},
		{"GET", "/v1/estimate?q=laptop&method=bogus", "", "unknown_method"},
		{"GET", "/v1/nope", "", "not_found"},
		{"PUT", "/v1/docs/x", "<a/>", "method_not_allowed"},
		{"POST", "/v1/docs/sample", doc, "exists"},
		{"POST", "/v1/docs/bad", "<a><b>", "bad_document"},
		{"POST", "/v1/docs/a%0Ab", "<a/>", "bad_document"},
		{"DELETE", "/v1/docs/missing", "", "not_found"},
		// More same-label siblings than the counter's subset DP allows.
		{"GET", "/v1/exact?q=" + bigGroup, "", "bad_query"},
		{"GET", "/v1/query?count=1&q=//" + bigGroup, "", "bad_query"},
		{"GET", "/v1/query?q=//" + bigGroup, "", "bad_query"},
	} {
		_, out := do(t, tc.method, srv.URL+tc.path, tc.body)
		if got, _ := out["code"].(string); got != tc.wantCode {
			t.Errorf("%s %s: code %q, want %q (%v)", tc.method, tc.path, got, tc.wantCode, out)
		}
	}
}

// TestUnknownLabelEstimatesZero checks that a query naming a label no
// document ever carried answers 0 rather than erroring: absence is a
// selectivity fact, not a client mistake.
func TestUnknownLabelEstimatesZero(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=never_seen(brand)", "")
	if code != 200 || out["estimate"].(float64) != 0 {
		t.Fatalf("unknown label estimate: %d %v", code, out)
	}
	code, out = do(t, "GET", srv.URL+"/v1/exact?q=never_seen2", "")
	if code != 200 || out["count"].(float64) != 0 {
		t.Fatalf("unknown label exact: %d %v", code, out)
	}
}

// TestUnknownLabelsInternNothing: parsing a request never adds its
// labels to the dictionary a summary shares with its corpus (or its
// fleet snapshot). So the dictionary cannot grow with read traffic,
// and a repeated unknown label still short-circuits: every route gives
// the second request the answer it gave the first, without running an
// estimator or scanning documents.
func TestUnknownLabelsInternNothing(t *testing.T) {
	srv, h := newFleetServer(t, Options{})
	if code, _ := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatal("seeding corpus")
	}
	// Load the tenant before reading its dictionary.
	if code, out := do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=l0", ""); code != http.StatusOK {
		t.Fatalf("acme estimate: %d %v", code, out)
	}
	acme, ok := h.flt.Peek("acme")
	if !ok {
		t.Fatal("tenant acme not resident")
	}
	corpusLabels, acmeLabels := h.c.Summary().Dict().Len(), acme.Dict().Len()
	for _, req := range []struct{ method, path, body string }{
		{"GET", "/v1/estimate?q=laptop(zz0)", ""},
		{"POST", "/v1/estimate/batch", `{"queries":["laptop(zz1)"]}`},
		{"GET", "/v1/exact?q=laptop(zz2)", ""},
		{"GET", "/v1/explain?q=laptop(zz3)", ""},
		{"GET", "/v1/query?count=1&q=laptop(//zz4)", ""},
		{"GET", "/v1/t/acme/estimate?q=l0(zz5)", ""},
	} {
		code1, out1 := do(t, req.method, srv.URL+req.path, req.body)
		code2, out2 := do(t, req.method, srv.URL+req.path, req.body)
		if code1 != code2 || !reflect.DeepEqual(out1, out2) {
			t.Errorf("%s %s: first %d %v, repeated %d %v", req.method, req.path, code1, out1, code2, out2)
		}
	}
	if n := h.c.Summary().Dict().Len(); n != corpusLabels {
		t.Errorf("corpus dictionary grew from %d to %d labels", corpusLabels, n)
	}
	if n := acme.Dict().Len(); n != acmeLabels {
		t.Errorf("tenant dictionary grew from %d to %d labels", acmeLabels, n)
	}
}

// TestUploadTooLarge checks the MaxBytesReader guard: an oversized body
// gets 413 with the too_large code, and the corpus stays unchanged.
func TestUploadTooLarge(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerOptions(c, Options{MaxDocumentBytes: 256}))
	t.Cleanup(srv.Close)

	big := "<root>" + strings.Repeat("<a/>", 200) + "</root>"
	code, out := do(t, "POST", srv.URL+"/v1/docs/big", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: code %d (%v), want 413", code, out)
	}
	if got, _ := out["code"].(string); got != "too_large" {
		t.Fatalf("oversized upload code = %q, want too_large (%v)", got, out)
	}
	_, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	if docs := stats["documents"].([]any); len(docs) != 0 {
		t.Fatalf("oversized upload mutated corpus: %v", docs)
	}

	// A body under the limit still works.
	code, _ = do(t, "POST", srv.URL+"/v1/docs/small", "<root><a/></root>")
	if code != http.StatusCreated {
		t.Fatalf("small upload: code %d", code)
	}
}

// TestConcurrentEstimateAndUpload races reads against incremental merges:
// run under -race, it checks the lock discipline across the estimate
// path, the sub-estimate caches, and the upload pipeline.
func TestConcurrentEstimateAndUpload(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/seed", doc)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				resp, err := http.Get(srv.URL + "/v1/estimate?q=laptop(brand,price)")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("estimate status %d", resp.StatusCode)
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("doc%d", i)
			resp, err := http.Post(srv.URL+"/v1/docs/"+name, "application/xml", strings.NewReader(doc))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("upload %s status %d", name, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	// All five documents merged: the corpus-wide count is exact.
	_, out := do(t, "GET", srv.URL+"/v1/exact?q=laptop(brand,price)", "")
	if got := out["count"].(float64); got != 10 {
		t.Fatalf("after concurrent uploads count = %v, want 10", got)
	}
}

// TestStatsReportsBuildTimings checks per-stage timings surface after an
// upload.
func TestStatsReportsBuildTimings(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	_, out := do(t, "GET", srv.URL+"/v1/stats", "")
	ms, ok := out["last_build_ms"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing last_build_ms: %v", out)
	}
	for _, stage := range []string{"parse", "mine", "persist"} {
		if _, ok := ms[stage]; !ok {
			t.Errorf("last_build_ms missing stage %q: %v", stage, ms)
		}
	}
}

func TestConcurrentReads(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/estimate?q=laptop(brand)")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
}

// TestEstimateCaching: the summary's sub-estimate cache answers a
// repeated query by its whole-query key. A size-(K+1) twig is not in the
// lattice, so every repeat is exactly one cache hit and answers bit for
// bit like the first; a new document publishes an epoch whose estimate
// reflects it.
func TestEstimateCaching(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	const (
		q    = "laptops(laptop(brand,price))" // size 4, K = 3
		hits = "subcache.recursive+voting.hits"
	)
	_, first := do(t, "GET", srv.URL+"/v1/estimate?q="+q, "")
	if _, ok := first["estimate"].(float64); !ok {
		t.Fatalf("first estimate: %v", first)
	}
	prev := decodeMetrics(t, srv.URL).Counters[hits]
	for i := 1; i <= 3; i++ {
		_, out := do(t, "GET", srv.URL+"/v1/estimate?q="+q, "")
		if out["estimate"] != first["estimate"] {
			t.Fatalf("repeat %d answered %v, first answer %v", i, out["estimate"], first["estimate"])
		}
		got := decodeMetrics(t, srv.URL).Counters[hits]
		if got != prev+1 {
			t.Fatalf("repeat %d: %s went %d -> %d, want one hit", i, hits, prev, got)
		}
		prev = got
	}
	// A mutation invalidates: estimates change after a second document.
	do(t, "POST", srv.URL+"/v1/docs/sample2", doc)
	_, est := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand)", "")
	if est["estimate"].(float64) != 4 {
		t.Fatalf("post-invalidation estimate = %v, want 4", est["estimate"])
	}
}

// decodeMetrics scrapes /v1/metrics into an obs.Snapshot.
func decodeMetrics(t *testing.T, url string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricsEndpoint drives a known request mix and checks the exported
// counters and histograms agree with it.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	const n = 7
	for i := 0; i < n; i++ {
		do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)", "")
	}
	do(t, "GET", srv.URL+"/v1/estimate?q=a((", "") // one 400

	s := decodeMetrics(t, srv.URL)
	if got := s.Counters["http.estimate.requests"]; got != n+1 {
		t.Errorf("estimate requests = %d, want %d", got, n+1)
	}
	if got := s.Counters["http.estimate.status.2xx"]; got != n {
		t.Errorf("estimate 2xx = %d, want %d", got, n)
	}
	if got := s.Counters["http.estimate.status.4xx"]; got != 1 {
		t.Errorf("estimate 4xx = %d, want 1", got)
	}
	if got := s.Counters["http.doc_add.requests"]; got != 1 {
		t.Errorf("doc_add requests = %d, want 1", got)
	}
	hist, ok := s.Histograms["http.estimate.latency_seconds"]
	if !ok || hist.Count != n+1 {
		t.Errorf("estimate latency histogram count = %d, want %d", hist.Count, n+1)
	}
	// The estimate path records per-method latencies in core: every good
	// request reaches the estimator, repeats included; the bad query
	// fails to parse before it.
	if got := s.Histograms["estimate.recursive+voting.latency_seconds"].Count; got != n {
		t.Errorf("estimator latency count = %d, want %d", got, n)
	}
	// The scrape observes itself: the snapshot is taken while the metrics
	// request is still in flight.
	if got, ok := s.Gauges["http.in_flight"]; !ok || got != 1 {
		t.Errorf("in_flight = %d (present %v), want 1 (the scrape itself)", got, ok)
	}
}

// TestStatsObsSummary: /v1/stats carries the sub-estimate cache's hit
// ratio and the per-endpoint obs summary.
func TestStatsObsSummary(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	// A size-(K+1) twig: the first estimate misses the cache by its
	// whole-query key, the repeat hits it.
	do(t, "GET", srv.URL+"/v1/estimate?q=laptops(laptop(brand,price))", "")
	do(t, "GET", srv.URL+"/v1/estimate?q=laptops(laptop(brand,price))", "")
	_, out := do(t, "GET", srv.URL+"/v1/stats", "")
	sub, ok := out["subcache"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing subcache section: %v", out)
	}
	if ratio, ok := sub["hit_ratio"].(float64); !ok || ratio != 0.5 {
		t.Errorf("subcache hit_ratio = %v, want 0.5", sub["hit_ratio"])
	}
	if _, ok := sub["evictions"].(float64); !ok {
		t.Errorf("subcache section missing evictions: %v", sub)
	}
	eps, ok := out["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing endpoints summary: %v", out)
	}
	est, ok := eps["estimate"].(map[string]any)
	if !ok {
		t.Fatalf("endpoints missing estimate: %v", eps)
	}
	if est["requests"].(float64) != 2 {
		t.Errorf("endpoint requests = %v, want 2", est["requests"])
	}
	for _, q := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		if _, ok := est[q]; !ok {
			t.Errorf("endpoint summary missing %s: %v", q, est)
		}
	}
}

// TestMetricsUnderConcurrentLoad hammers estimates, uploads, and metrics
// scrapes together (run under -race): every scrape must be self-consistent
// (histogram count == bucket sum) and counters must be monotone across
// scrapes.
func TestMetricsUnderConcurrentLoad(t *testing.T) {
	srv, _ := newServer(t)
	do(t, "POST", srv.URL+"/v1/docs/seed", doc)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := http.Get(srv.URL + "/v1/estimate?q=laptop(brand,price)")
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+fmt.Sprintf("/v1/docs/d%d", i),
				"application/xml", strings.NewReader(doc))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}(i)
	}
	scrapeErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev map[string]uint64
		for k := 0; k < 30; k++ {
			s := decodeMetrics(t, srv.URL)
			for name, hist := range s.Histograms {
				var sum uint64
				for _, b := range hist.Buckets {
					sum += b.Count
				}
				if sum != hist.Count {
					select {
					case scrapeErr <- fmt.Errorf("torn histogram %s: %d != %d", name, sum, hist.Count):
					default:
					}
					return
				}
			}
			for name, v := range prev {
				if s.Counters[name] < v {
					select {
					case scrapeErr <- fmt.Errorf("counter %s went backwards: %d -> %d", name, v, s.Counters[name]):
					default:
					}
					return
				}
			}
			prev = s.Counters
		}
	}()
	wg.Wait()
	select {
	case err := <-scrapeErr:
		t.Fatal(err)
	default:
	}

	s := decodeMetrics(t, srv.URL)
	if got := s.Counters["http.estimate.requests"]; got != 150 {
		t.Errorf("estimate requests = %d, want 150", got)
	}
	if got := s.Counters["http.doc_add.requests"]; got != 4 {
		t.Errorf("doc_add requests = %d, want 4", got)
	}
}

// TestMetricsMethodNotAllowed pins the envelope on the metrics route too.
func TestMetricsMethodNotAllowed(t *testing.T) {
	srv, _ := newServer(t)
	code, out := do(t, "POST", srv.URL+"/v1/metrics", "x")
	if code != 405 || out["code"] != "method_not_allowed" {
		t.Fatalf("POST /v1/metrics: %d %v", code, out)
	}
}

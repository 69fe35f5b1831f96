package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treelattice/internal/corpus"
)

// newResilientServer builds a corpus-backed server with the given
// resilience options and an optional fault injector wrapped around the
// corpus.
func newResilientServer(t *testing.T, res ResilienceOptions, inj *faultInjector) (*httptest.Server, *Handler) {
	t.Helper()
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var backend Backend = c
	if inj != nil {
		backend = &faultCorpus{Backend: c, inj: inj}
	}
	h := NewHandlerOptions(backend, Options{Resilience: res})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	// Seed one document through the (possibly fault-injected) backend
	// before the schedule-sensitive traffic starts.
	code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc)
	if code != http.StatusCreated {
		t.Fatalf("seeding doc: %d %v", code, out)
	}
	return srv, h
}

// TestExactDeadline504: a /v1/exact whose budget expires mid-count answers
// 504 deadline_exceeded, promptly.
func TestExactDeadline504(t *testing.T) {
	inj := newFaultInjector(faultOptions{Latency: 5 * time.Second})
	srv, _ := newResilientServer(t, ResilienceOptions{ExactBudget: 30 * time.Millisecond}, inj)

	start := time.Now()
	code, out := do(t, "GET", srv.URL+"/v1/exact?q=laptop(brand,price)", "")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("exact under expired budget: %d %v, want 504", code, out)
	}
	if got, _ := out["code"].(string); got != "deadline_exceeded" {
		t.Fatalf("code = %q, want deadline_exceeded (%v)", got, out)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("504 took %v; deadline did not interrupt the scan", d)
	}

	_, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	res, ok := stats["resilience"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing resilience section: %v", stats)
	}
	if res["deadline_exceeded"].(float64) < 1 {
		t.Fatalf("deadline_exceeded counter = %v, want >= 1", res["deadline_exceeded"])
	}
}

// TestEstimateDegrades: a recursive estimate that blows its budget falls
// back to fix-sized and says so, instead of erroring.
func TestEstimateDegrades(t *testing.T) {
	// A budget of 1ns is expired by the time the estimator polls it, so
	// the degradation path runs deterministically without sleeps.
	srv, _ := newResilientServer(t, ResilienceOptions{EstimateBudget: time.Nanosecond}, nil)

	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)&method=recursive", "")
	if code != 200 {
		t.Fatalf("degradable estimate: %d %v, want 200", code, out)
	}
	if out["degraded"] != true {
		t.Fatalf("response not marked degraded: %v", out)
	}
	if out["method"] != "fix-sized" {
		t.Fatalf("fallback method = %v, want fix-sized", out["method"])
	}
	if out["estimate"].(float64) != 2 {
		t.Fatalf("degraded estimate = %v, want 2 (fix-sized is exact here)", out["estimate"])
	}

	_, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	res := stats["resilience"].(map[string]any)
	if res["degraded"].(float64) < 1 {
		t.Fatalf("degraded counter = %v, want >= 1", res["degraded"])
	}
}

// TestEstimate504WhenNoFallback: fix-sized is the bottom of the ladder, so
// a blown budget surfaces as 504.
func TestEstimate504WhenNoFallback(t *testing.T) {
	srv, _ := newResilientServer(t, ResilienceOptions{EstimateBudget: time.Nanosecond}, nil)
	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)&method=fix-sized", "")
	if code != http.StatusGatewayTimeout || out["code"] != "deadline_exceeded" {
		t.Fatalf("fix-sized under expired budget: %d %v, want 504 deadline_exceeded", code, out)
	}
}

// TestEstimateDisableFallback: with degradation off, the recursive methods
// 504 too.
func TestEstimateDisableFallback(t *testing.T) {
	srv, _ := newResilientServer(t, ResilienceOptions{
		EstimateBudget:  time.Nanosecond,
		DisableFallback: true,
	}, nil)
	code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)&method=recursive", "")
	if code != http.StatusGatewayTimeout || out["code"] != "deadline_exceeded" {
		t.Fatalf("fallback-disabled estimate: %d %v, want 504 deadline_exceeded", code, out)
	}
}

// TestExplainDeadline504: /v1/explain runs both of its recursions, the
// traced estimate and the decomposition interval, under the route's
// estimate budget. Over one <r> holding 16 distinct leaves, the star
// query r(a0,…,a15) has about 2^16 sub-twigs to decompose; under a 100 ms
// budget it answers 504 promptly, while a small query still answers 200.
func TestExplainDeadline504(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerOptions(c, Options{Resilience: ResilienceOptions{EstimateBudget: 100 * time.Millisecond}}))
	t.Cleanup(srv.Close)
	leaves := make([]string, 16)
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := range leaves {
		leaves[i] = fmt.Sprintf("a%d", i)
		fmt.Fprintf(&doc, "<%s/>", leaves[i])
	}
	doc.WriteString("</r>")
	if code, out := do(t, "POST", srv.URL+"/v1/docs/star", doc.String()); code != http.StatusCreated {
		t.Fatalf("adding the star document: %d %v", code, out)
	}

	start := time.Now()
	code, out := do(t, "GET", srv.URL+"/v1/explain?q=r("+strings.Join(leaves, ",")+")", "")
	if code != http.StatusGatewayTimeout || out["code"] != "deadline_exceeded" {
		t.Fatalf("explain of the 16-leaf star: %d %v, want 504 deadline_exceeded", code, out)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("504 took %v; the deadline did not interrupt the recursion", d)
	}
	code, out = do(t, "GET", srv.URL+"/v1/explain?q=r(a0,a1,a2,a3)", "")
	if code != http.StatusOK || out["estimate"] != 1.0 {
		t.Fatalf("explain of a small query under the same budget: %d %v, want 200 with estimate 1", code, out)
	}
}

// TestAdmissionShed429: with the limiter saturated by slow exact scans,
// excess arrivals get 429 + Retry-After and the shed counter moves.
func TestAdmissionShed429(t *testing.T) {
	inj := newFaultInjector(faultOptions{Latency: 300 * time.Millisecond})
	srv, _ := newResilientServer(t, ResilienceOptions{
		AdmissionLimit: 1,
		AdmissionQueue: 1,
		QueueWait:      10 * time.Millisecond,
		RetryAfter:     2 * time.Second,
		ExactBudget:    5 * time.Second,
	}, inj)

	const clients = 6
	codes := make(chan int, clients)
	retry := make(chan string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/v1/exact?q=laptop(brand,price)")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
			retry <- resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	close(codes)
	close(retry)

	var ok200, shed int
	for c := range codes {
		switch c {
		case 200:
			ok200++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok200 < 1 || shed < 1 {
		t.Fatalf("ok=%d shed=%d, want at least one of each", ok200, shed)
	}
	sawRetry := false
	for h := range retry {
		if h == "2" {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no shed response carried Retry-After: 2")
	}

	s := decodeMetrics(t, srv.URL)
	if s.Counters["resilience.shed"] < 1 {
		t.Fatalf("resilience.shed = %d, want >= 1", s.Counters["resilience.shed"])
	}
	if s.Counters["resilience.admitted"] < 1 {
		t.Fatalf("resilience.admitted = %d, want >= 1", s.Counters["resilience.admitted"])
	}
	_, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	res := stats["resilience"].(map[string]any)
	if res["shed"].(float64) < 1 {
		t.Fatalf("stats shed = %v, want >= 1", res["shed"])
	}
}

// TestPanicIsolation: an injected handler panic becomes a 500 envelope and
// a counter; the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	// PanicEvery: 1 — every injected operation panics. The seeding upload
	// goes through AddXMLContext, which is also injected, so seed without
	// an injector and swap it in afterwards via a second handler.
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain := httptest.NewServer(NewHandler(c))
	code, _ := do(t, "POST", plain.URL+"/v1/docs/sample", doc)
	plain.Close()
	if code != http.StatusCreated {
		t.Fatalf("seed: %d", code)
	}

	inj := newFaultInjector(faultOptions{PanicEvery: 1})
	h := NewHandlerOptions(&faultCorpus{Backend: c, inj: inj}, Options{})
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	code, out := do(t, "GET", srv.URL+"/v1/exact?q=laptop(brand,price)", "")
	if code != http.StatusInternalServerError || out["code"] != "internal" {
		t.Fatalf("panicking exact: %d %v, want 500 internal", code, out)
	}
	// The process survived; a cheap endpoint still answers.
	code, _ = do(t, "GET", srv.URL+"/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats after panic: %d", code)
	}
	s := decodeMetrics(t, srv.URL)
	if s.Counters["http.panics"] < 1 {
		t.Fatalf("http.panics = %d, want >= 1", s.Counters["http.panics"])
	}
}

// TestOverloadAcceptance is the overload acceptance scenario: admission
// limit N, a closed loop of >= 4N concurrent clients against a
// fault-injected slow corpus with scheduled panics. The server must shed
// with 429s, keep admitted p99 under the deadline envelope, absorb the
// panics, and stay up.
func TestOverloadAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("overload run takes ~1s of wall clock")
	}
	const (
		limit    = 4
		clients  = 4 * limit // >= 4N
		latency  = 30 * time.Millisecond
		budget   = 150 * time.Millisecond
		maxWait  = 25 * time.Millisecond
		p99Bound = 0.5 // seconds: budget + queue wait + generous scheduling slack
	)
	inj := newFaultInjector(faultOptions{
		Latency:    latency,
		PanicEvery: 17,
		Seed:       1,
	})
	srv, _ := newResilientServer(t, ResilienceOptions{
		AdmissionLimit: limit,
		AdmissionQueue: limit,
		QueueWait:      maxWait,
		ExactBudget:    budget,
	}, inj)

	res := exactLoop(t, srv.URL, clients, time.Second)
	if res.Errors > 0 {
		t.Fatalf("driver saw %d unexpected responses", res.Errors)
	}

	s := decodeMetrics(t, srv.URL)
	if s.Counters["resilience.shed"] < 1 {
		t.Fatalf("no requests shed at %d clients over limit %d", clients, limit)
	}
	if s.Counters["http.panics"] < 1 {
		t.Fatalf("no injected panics recovered (issued %d)", res.Issued)
	}
	if s.Counters["http.exact.status.5xx"] < 1 {
		t.Fatalf("no 5xx recorded despite injected panics")
	}
	if s.Counters["http.exact.status.4xx"] < 1 {
		t.Fatalf("no 4xx recorded despite shedding")
	}
	hist, ok := s.Histograms["http.exact.latency_seconds"]
	if !ok || hist.Count == 0 {
		t.Fatalf("no exact latency samples")
	}
	if hist.P99 > p99Bound {
		t.Fatalf("exact p99 = %.3fs, want <= %.1fs (deadline envelope)", hist.P99, p99Bound)
	}
	// Zero process deaths: the server still answers after the storm.
	code, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	if code != 200 {
		t.Fatalf("stats after overload: %d", code)
	}
	resSec := stats["resilience"].(map[string]any)
	if resSec["panics"].(float64) < 1 || resSec["shed"].(float64) < 1 {
		t.Fatalf("stats resilience section inconsistent: %v", resSec)
	}
}

// loopResult tallies a closed-loop run.
type loopResult struct {
	Issued, Errors int64
}

// exactLoop runs a closed loop for d: each of clients goroutines GETs
// /v1/exact back to back. Shed (429), panic (500) and deadline (504)
// answers are the behaviours under overload, not errors; any other
// status, or a transport failure, is.
func exactLoop(t *testing.T, base string, clients int, d time.Duration) loopResult {
	t.Helper()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	// The default per-host idle cap (2) would open a connection per
	// request and measure TCP setup, not the server.
	transport.MaxIdleConnsPerHost = clients
	client := &http.Client{Transport: transport}
	defer transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var issued, errs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				resp, err := client.Get(base + "/v1/exact?q=laptop(brand,price)")
				issued.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests,
					http.StatusInternalServerError, http.StatusGatewayTimeout:
				default:
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return loopResult{Issued: issued.Load(), Errors: errs.Load()}
}

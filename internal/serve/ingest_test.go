package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treelattice/internal/corpus"
)

// TestIngestZeroDowntime is the serve-layer acceptance scenario: a
// read-only (frozen) replica with ingest enabled accepts writes while
// readers hammer estimate, batch, and readyz across at least ten
// background refreezes under injected refreeze faults. Zero 409s, zero
// failed reads, readyz stays ready throughout — readers never observe a
// swap in progress.
func TestIngestZeroDowntime(t *testing.T) {
	dir := t.TempDir()
	seed, err := corpus.Create(dir, corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.AddXML("seed", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}

	// Reopen as a frozen serving replica — the shape a production
	// read-only node runs — and switch it into ingest mode with an
	// aggressive refreeze cadence and a fault every third attempt.
	ro, err := corpus.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hookCalls atomic.Int64
	err = ro.EnableIngest(corpus.IngestOptions{
		RefreezeInterval: 10 * time.Millisecond,
		MaxDeltaDocs:     2,
		BackoffBase:      time.Millisecond,
		BackoffMax:       5 * time.Millisecond,
		BackoffSeed:      1,
		RefreezeHook: func(context.Context) error {
			if hookCalls.Add(1)%3 == 0 {
				return errors.New("injected refreeze fault")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.DisableIngest()

	srv := httptest.NewServer(NewHandler(ro))
	defer srv.Close()

	var (
		stop      atomic.Bool
		readErrs  atomic.Int64
		reads     atomic.Int64
		conflicts atomic.Int64 // 409s, must stay zero
		writes    atomic.Int64
		wg        sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		readErrs.Add(1)
		t.Errorf(format, args...)
	}

	// Readers: single estimates, batches, and readiness probes.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Get(srv.URL + "/v1/estimate?q=laptop(brand,price)")
				if err != nil {
					fail("estimate: %v", err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					fail("estimate status: %d", resp.StatusCode)
				}
				reads.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := `{"queries":["laptop(brand,price)","computer(laptops)","laptop"]}`
		for !stop.Load() {
			resp, err := http.Post(srv.URL+"/v1/estimate/batch", "application/json", strings.NewReader(body))
			if err != nil {
				fail("batch: %v", err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("batch status: %d", resp.StatusCode)
			}
			reads.Add(1)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			resp, err := http.Get(srv.URL + "/v1/readyz")
			if err != nil {
				fail("readyz: %v", err)
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("readyz not ready during refreeze: %d", resp.StatusCode)
			}
			reads.Add(1)
			time.Sleep(time.Millisecond)
		}
	}()

	// Writer: continuous ingest against the frozen replica. Backpressure
	// (429) would be acceptable by contract but must never become a 409.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			url := fmt.Sprintf("%s/v1/docs/ingest-%04d", srv.URL, i)
			resp, err := http.Post(url, "application/xml", strings.NewReader(doc))
			if err != nil {
				t.Errorf("ingest write: %v", err)
				continue
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated, http.StatusTooManyRequests:
				writes.Add(1)
			case http.StatusConflict:
				conflicts.Add(1)
			default:
				t.Errorf("ingest write status: %d", resp.StatusCode)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	for ro.IngestStats().Refreezes < 10 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("only %d refreezes before deadline", ro.IngestStats().Refreezes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	st := ro.IngestStats()
	if st.Refreezes < 10 {
		t.Fatalf("refreezes = %d, want >= 10", st.Refreezes)
	}
	if st.RefreezeFailures == 0 {
		t.Errorf("fault injection never fired (attempts=%d)", st.RefreezeAttempts)
	}
	if n := conflicts.Load(); n != 0 {
		t.Errorf("409 conflicts = %d, want 0", n)
	}
	if n := readErrs.Load(); n != 0 {
		t.Errorf("failed reads = %d of %d, want 0", n, reads.Load())
	}
	if writes.Load() == 0 || reads.Load() == 0 {
		t.Fatalf("degenerate run: writes=%d reads=%d", writes.Load(), reads.Load())
	}

	// The merged view answers for both the frozen base and the delta.
	resp, err := http.Get(srv.URL + "/v1/estimate?q=laptop(brand,price)")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final estimate: %d", resp.StatusCode)
	}
}

// TestIngestStatsAndBackpressure covers the serve-facing ingest
// surface: /v1/stats grows epoch + ingest sections, a delta past the
// hard limit turns POST /v1/docs into 429 with Retry-After, and DELETE
// works while ingesting.
func TestIngestStatsAndBackpressure(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(corpus.IngestOptions{HardDeltaBytes: 1}); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	code, _ := do(t, "POST", srv.URL+"/v1/docs/a", doc)
	if code != http.StatusCreated {
		t.Fatalf("first add: %d", code)
	}

	// The add landed in the delta; stats surface it before any refreeze.
	code, out := do(t, "GET", srv.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if _, ok := out["epoch"]; !ok {
		t.Errorf("stats missing epoch: %v", out)
	}
	ing, ok := out["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing ingest section: %v", out)
	}
	if ing["delta_docs"].(float64) != 1 {
		t.Errorf("delta_docs = %v, want 1", ing["delta_docs"])
	}

	// Second add exceeds the hard delta limit: 429 + Retry-After. The
	// rejection also kicks the refreezer, which drains the delta.
	resp, err := http.Post(srv.URL+"/v1/docs/b", "application/xml", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressured add: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("backpressured add missing Retry-After")
	}

	code, out = do(t, "DELETE", srv.URL+"/v1/docs/a", "")
	if code != http.StatusOK || out["removed"] != "a" {
		t.Fatalf("delete during ingest: %d %v, want 200", code, out)
	}

	// The backpressure counter is cumulative — stable even after the
	// kicked refreeze drains the delta.
	code, out = do(t, "GET", srv.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	ing, ok = out["ingest"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing ingest section: %v", out)
	}
	if ing["backpressured"].(float64) != 1 {
		t.Errorf("backpressured = %v, want 1", ing["backpressured"])
	}
}

// TestIngestEpochScopedCache: answers cached under one epoch must not
// leak into the next — a cached pre-ingest estimate would hide the
// freshly added document. Each epoch's summary owns its sub-estimate
// caches, so publishing is the invalidation, with no Reset on the write
// path.
func TestIngestEpochScopedCache(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(corpus.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	get := func() float64 {
		t.Helper()
		code, out := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand,price)", "")
		if code != http.StatusOK {
			t.Fatalf("estimate: %d %v", code, out)
		}
		return out["estimate"].(float64)
	}

	do(t, "POST", srv.URL+"/v1/docs/a", doc)
	if est := get(); est != 2 {
		t.Fatalf("estimate after first doc = %v, want 2", est)
	}
	get() // populate the cache under the current epoch

	do(t, "POST", srv.URL+"/v1/docs/b", doc)
	if est := get(); est != 4 {
		t.Fatalf("estimate after second doc = %v, want 4 (stale cache?)", est)
	}
}

// TestMetricsIngestGauges: a /v1/metrics scrape sees the current epoch
// and delta size in the ingest.* gauges on its own, with no /v1/stats
// call before it.
func TestMetricsIngestGauges(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(corpus.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	for _, name := range []string{"a", "b"} {
		if code, out := do(t, "POST", srv.URL+"/v1/docs/"+name, doc); code != http.StatusCreated {
			t.Fatalf("add %s: %d %v", name, code, out)
		}
	}
	ing := c.IngestStats()
	if ing.Epoch != 3 || ing.DeltaDocs != 2 {
		t.Fatalf("IngestStats() = %+v, want epoch 3 with 2 delta documents", ing)
	}
	gauges := decodeMetrics(t, srv.URL).Gauges
	if got := gauges["ingest.epoch"]; got != 3 {
		t.Errorf("ingest.epoch = %d, want 3", got)
	}
	if got := gauges["ingest.delta_docs"]; got != 2 {
		t.Errorf("ingest.delta_docs = %d, want 2", got)
	}
	if got, want := gauges["ingest.delta_bytes"], int64(ing.DeltaBytes); got != want {
		t.Errorf("ingest.delta_bytes = %d, want %d", got, want)
	}
}

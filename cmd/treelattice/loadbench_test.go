package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"treelattice/internal/corpus"
	"treelattice/internal/serve"
)

// readReport parses a BENCH_serve.json.
func readReport(t *testing.T, path string) benchReport {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("BENCH_serve.json is not well-formed: %v\n%s", err, data)
	}
	return r
}

// TestLoadbenchGeneratedCorpus is the end-to-end acceptance path: a
// generated corpus, an in-process server, a fixed-request closed-loop run,
// and a well-formed report whose server-side request total matches the
// driver's issued count.
func TestLoadbenchGeneratedCorpus(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var buf bytes.Buffer
	err := runLoadbench([]string{
		"-gen", "nasa", "-scale", "2000", "-k", "3",
		"-requests", "150", "-warmup", "0s", "-concurrency", "4",
		"-sizes", "3,4", "-persize", "10", "-neg", "0.2", "-seed", "11",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	if r.Result == nil {
		t.Fatal("report missing result")
	}
	if r.Result.Issued != 150 {
		t.Errorf("issued = %d, want 150", r.Result.Issued)
	}
	if r.Result.AchievedQPS <= 0 {
		t.Errorf("achieved_qps = %v", r.Result.AchievedQPS)
	}
	lat := r.Result.Latency
	if lat.Count != r.Result.Issued {
		t.Errorf("latency count %d != issued %d", lat.Count, r.Result.Issued)
	}
	if lat.P50 < 0 || lat.P95 < lat.P50 || lat.P99 < lat.P95 {
		t.Errorf("quantiles not ordered: p50=%v p95=%v p99=%v", lat.P50, lat.P95, lat.P99)
	}
	if r.ServerMetrics == nil {
		t.Fatal("report missing server metrics")
	}
	// No warmup: the server-side per-endpoint total must equal the
	// driver's issued count exactly.
	if got := r.ServerMetrics.Counters["http.estimate.requests"]; got != r.Result.Issued {
		t.Errorf("server estimate requests = %d, driver issued %d", got, r.Result.Issued)
	}
	if hist, ok := r.ServerMetrics.Histograms["http.estimate.latency_seconds"]; !ok || hist.Count != r.Result.Issued {
		t.Errorf("server latency histogram count = %d, want %d", hist.Count, r.Result.Issued)
	}
	if r.Config.Seed != 11 || r.Config.K != 3 {
		t.Errorf("config not recorded: %+v", r.Config)
	}
	if r.Workload.Queries == 0 || r.Workload.Negatives == 0 {
		t.Errorf("workload summary empty: %+v", r.Workload)
	}
}

// TestLoadbenchInprocAndSeed checks the -inproc target and that rerunning
// with the same seed issues the identical workload.
func TestLoadbenchInprocAndSeed(t *testing.T) {
	dir := t.TempDir()
	run := func(seed string) benchReport {
		out := filepath.Join(dir, "bench-"+seed+".json")
		var buf bytes.Buffer
		err := runLoadbench([]string{
			"-gen", "psd", "-scale", "1500", "-k", "3", "-inproc",
			"-requests", "80", "-warmup", "0s", "-concurrency", "2",
			"-sizes", "3", "-persize", "8", "-seed", seed, "-out", out,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return readReport(t, out)
	}
	a, b := run("3"), run("3")
	if a.ServerMetrics != nil {
		t.Error("inproc run should have no server metrics")
	}
	if !strings.HasPrefix(a.Result.Target, "inprocess:") {
		t.Errorf("target = %q", a.Result.Target)
	}
	if a.Workload != b.Workload {
		t.Errorf("same seed produced different workload summaries: %+v vs %+v", a.Workload, b.Workload)
	}
}

// TestLoadbenchTenantsAndBackends covers the fleet additions to the
// report schema: the -tenants round-robin mix over the /v1/t routes,
// including the per-tenant counters the server publishes, and the
// -backends frozen-vs-compressed matrix.
func TestLoadbenchTenantsAndBackends(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var buf bytes.Buffer
	err := runLoadbench([]string{
		"-gen", "psd", "-scale", "1500", "-k", "3",
		"-requests", "60", "-warmup", "0s", "-concurrency", "2",
		"-sizes", "3", "-persize", "8", "-seed", "5",
		"-tenants", "2", "-backends", "-sweeprequests", "40",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)

	if r.TenantResult == nil {
		t.Fatal("report missing tenant_result")
	}
	if r.TenantResult.Issued != 60 || r.TenantResult.Errors != 0 {
		t.Errorf("tenant run: %+v", r.TenantResult)
	}
	if !strings.HasPrefix(r.TenantResult.Target, "roundrobin(2)") {
		t.Errorf("tenant target = %q", r.TenantResult.Target)
	}
	if r.Config.Tenants != 2 {
		t.Errorf("tenants config not recorded: %+v", r.Config)
	}
	// The backend matrix: one frozen and one compressed row over the same
	// workload, with the compressed snapshot both smaller on disk and
	// smaller resident.
	if len(r.Backends) != 2 {
		t.Fatalf("backends rows = %d, want 2\n%s", len(r.Backends), buf.String())
	}
	froz, comp := r.Backends[0], r.Backends[1]
	if froz.Backend != "frozen" || comp.Backend != "compressed" {
		t.Fatalf("backend rows mislabeled: %q, %q", froz.Backend, comp.Backend)
	}
	for _, row := range r.Backends {
		if row.AchievedQPS <= 0 || row.Errors != 0 {
			t.Errorf("backend %s not measured cleanly: %+v", row.Backend, row)
		}
		if row.SnapshotBytes <= 0 || row.ResidentBytes <= 0 {
			t.Errorf("backend %s missing size accounting: %+v", row.Backend, row)
		}
	}
	// Disk sizes are reported, not compared: the TLAT stream is already
	// uvarint-compact, and at test scale TLCZ's fixed header and fence
	// sections can outweigh the front-coding. The resident footprint is
	// where the compressed backend must win.
	if comp.ResidentBytes >= froz.ResidentBytes {
		t.Errorf("compressed resident %d B not smaller than frozen %d B",
			comp.ResidentBytes, froz.ResidentBytes)
	}

	// The tenant mix ran through the real registry: per-tenant counters
	// account for every request, split across both tenants.
	if r.ServerMetrics == nil {
		t.Fatal("report missing server metrics")
	}
	t0 := r.ServerMetrics.Counters["tenant.t0.requests"]
	t1 := r.ServerMetrics.Counters["tenant.t1.requests"]
	if t0+t1 != 60 || t0 == 0 || t1 == 0 {
		t.Errorf("per-tenant requests t0=%d t1=%d, want a 60-request split", t0, t1)
	}
}

// TestLoadbenchQueryPlanMatrix covers the -query report section: the
// plan-vs-naive execution matrix over the four Table 3 profiles plus
// the served /v1/query count-only mix over the full HTTP path.
func TestLoadbenchQueryPlanMatrix(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var buf bytes.Buffer
	err := runLoadbench([]string{
		"-gen", "nasa", "-scale", "1500", "-k", "3",
		"-requests", "40", "-warmup", "0s", "-concurrency", "2",
		"-sizes", "3", "-persize", "8", "-seed", "7",
		"-query", "-queryscale", "1500", "-querypasses", "1",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	if r.QueryPlan == nil {
		t.Fatal("report missing query_plan section")
	}
	if len(r.QueryPlan.Datasets) != 4 {
		t.Fatalf("query_plan datasets = %d, want 4\n%s", len(r.QueryPlan.Datasets), buf.String())
	}
	for _, row := range r.QueryPlan.Datasets {
		if row.Queries == 0 {
			t.Errorf("%s: no queries survived screening", row.Dataset)
		}
		if row.PlanCandidates <= 0 || row.NaiveCandidates <= 0 {
			t.Errorf("%s: candidate totals not recorded: %+v", row.Dataset, row)
		}
		if row.CandidateReduction <= 0 {
			t.Errorf("%s: candidate_reduction = %v", row.Dataset, row.CandidateReduction)
		}
		// The planner must never be materially worse than the stored order
		// in aggregate; at tiny scale we only bound it away from pathology.
		if row.CandidateReduction < 0.9 {
			t.Errorf("%s: planner worse than naive: %vx", row.Dataset, row.CandidateReduction)
		}
		if row.PlanP50ms < 0 || row.NaiveP50ms < 0 || row.Speedup <= 0 {
			t.Errorf("%s: timings not recorded: %+v", row.Dataset, row)
		}
	}
	// The default in-process server also ran the served count-only mix.
	if r.QueryPlan.ServedMix == nil {
		t.Fatal("query_plan missing served_mix")
	}
	if r.QueryPlan.ServedMix.Issued != 40 || r.QueryPlan.ServedMix.Errors != 0 {
		t.Errorf("served mix: %+v", r.QueryPlan.ServedMix)
	}
	// The mix really hit the /v1/query route, not /v1/estimate.
	if r.ServerMetrics == nil {
		t.Fatal("report missing server metrics")
	}
	if got := r.ServerMetrics.Counters["http.query.requests"]; got != 40 {
		t.Errorf("server query requests = %d, want 40", got)
	}
}

// TestLoadbenchIngestMix covers the -ingest report row: the mixed
// read/write pass must record read-side latency, documents streamed
// through the delta/epoch pipeline, and the final ingest stats.
func TestLoadbenchIngestMix(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var buf bytes.Buffer
	err := runLoadbench([]string{
		"-gen", "xmark", "-scale", "1500", "-k", "3",
		"-requests", "40", "-warmup", "0s", "-concurrency", "2",
		"-sizes", "3", "-persize", "8", "-seed", "5",
		"-ingest", "-ingestdur", "300ms",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := readReport(t, out)
	if r.Ingest == nil {
		t.Fatal("report missing ingest row")
	}
	if r.Ingest.ReadResult == nil || r.Ingest.ReadResult.Issued == 0 {
		t.Fatalf("ingest read result empty: %+v", r.Ingest.ReadResult)
	}
	if r.Ingest.ReadResult.Errors != 0 {
		t.Errorf("reads failed during ingest: %d", r.Ingest.ReadResult.Errors)
	}
	if r.Ingest.DocsAdded == 0 {
		t.Error("ingest writer added no documents")
	}
	if r.Ingest.WriteErrors != 0 {
		t.Errorf("ingest write errors: %d", r.Ingest.WriteErrors)
	}
	if r.Ingest.Stats.Epoch == 0 {
		t.Errorf("ingest stats did not advance the epoch: %+v", r.Ingest.Stats)
	}
}

func TestLoadbenchFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runLoadbench([]string{"-requests", "5"}, &buf); err == nil {
		t.Error("missing corpus/gen accepted")
	}
	if err := runLoadbench([]string{"-gen", "nasa", "-corpus", "x", "-requests", "5"}, &buf); err == nil {
		t.Error("both corpus and gen accepted")
	}
	if err := runLoadbench([]string{"-gen", "nasa", "-sizes", "0,x"}, &buf); err == nil {
		t.Error("bad sizes accepted")
	}
	if err := runLoadbench([]string{"-gen", "nasa", "-scale", "500", "-requests", "5",
		"-inproc", "-tenants", "2"}, &buf); err == nil {
		t.Error("-tenants with -inproc accepted")
	}
}

// TestServeGracefulShutdown drives the serve lifecycle: start, answer
// traffic, cancel (as a signal would), and drain cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := runCorpus([]string{"init", "-dir", dir, "-k", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out safeBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveCorpus(ctx, c, "127.0.0.1:0", "127.0.0.1:0", serve.Options{}, defaultTuning(), &out)
	}()

	base := waitForAddr(t, &out, "serving corpus on ")
	debug := waitForAddr(t, &out, "debug endpoints (pprof, expvar, metrics) on ")

	resp, err := http.Post(base+"/v1/docs/sample", "application/xml", strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/estimate?q=laptop(brand,price)")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}

	// The debug listener answers on its own port: metrics JSON and pprof.
	for _, path := range []string{"/debug/metrics", "/debug/vars", "/debug/pprof/cmdline"} {
		resp, err = http.Get(debug + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
	// The traffic port does NOT expose pprof.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof on traffic port: status %d, want 404", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "draining in-flight requests") {
		t.Errorf("missing drain log: %q", out.String())
	}
	// The listener is really gone.
	if _, err := http.Get(base + "/v1/stats"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// waitForAddr polls the server log for a line with the given prefix and
// returns the http base URL it names.
func waitForAddr(t *testing.T, out *safeBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never logged %q: %q", prefix, out.String())
	return ""
}

// safeBuffer is a bytes.Buffer safe for the cross-goroutine read the
// shutdown test performs.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

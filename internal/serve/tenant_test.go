package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/datagen"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
	"treelattice/internal/workload"
	"treelattice/internal/xmlparse"
)

// writeFleetTenant materializes a tenant under root: one summary.tlat
// over a small deterministic forest labeled l0..l3.
func writeFleetTenant(t *testing.T, root, name string) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	dict, ids := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(42))
	trees := make([]*labeltree.Tree, 6)
	for i := range trees {
		trees[i] = treetest.RandomTree(rng, 14, ids, dict)
	}
	sum, err := core.BuildForestContext(context.Background(), trees, core.BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, fleet.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := sum.WriteTo(f); err != nil {
		t.Fatal(err)
	}
}

// newFleetServer builds a server over an empty corpus whose fleet root
// holds tenants "acme" and "solo".
func newFleetServer(t *testing.T, opts Options) (*httptest.Server, *Handler) {
	t.Helper()
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	writeFleetTenant(t, root, "acme")
	writeFleetTenant(t, root, "solo")
	opts.Fleet = fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResident: 4})
	h := NewHandlerOptions(c, opts)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, h
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	srv, _ := newServer(t)
	code, out := do(t, "GET", srv.URL+"/v1/healthz", "")
	if code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, out)
	}
	code, out = do(t, "GET", srv.URL+"/v1/readyz", "")
	if code != http.StatusOK || out["status"] != "ready" {
		t.Fatalf("readyz: %d %v", code, out)
	}
}

func TestReadyzSaturatedLimiter(t *testing.T) {
	srv, h := newFleetServer(t, Options{Resilience: ResilienceOptions{
		AdmissionLimit: 1,
		AdmissionQueue: 1,
		QueueWait:      200 * time.Millisecond,
	}})
	// Fill the run slot, then park a second caller in the queue: the
	// limiter is saturated until the queue wait expires.
	if err := h.limiter.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer h.limiter.Release()
	release := make(chan struct{})
	go func() {
		defer close(release)
		_ = h.limiter.Acquire(context.Background())
	}()
	deadline := time.Now().Add(time.Second)
	sawNotReady := false
	for time.Now().Before(deadline) && !sawNotReady {
		code, out := do(t, "GET", srv.URL+"/v1/readyz", "")
		if code == http.StatusServiceUnavailable {
			if out["code"] != "not_ready" {
				t.Fatalf("readyz envelope: %v", out)
			}
			sawNotReady = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-release
	if !sawNotReady {
		t.Fatal("saturated limiter never turned readyz 503")
	}
	// healthz stays 200 throughout: liveness is not readiness.
	if code, _ := do(t, "GET", srv.URL+"/v1/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz under saturation: %d", code)
	}
}

func TestTenantRoutes(t *testing.T) {
	srv, _ := newFleetServer(t, Options{})

	code, out := do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=l0(l1)&method=fix-sized", "")
	if code != http.StatusOK {
		t.Fatalf("acme estimate: %d %v", code, out)
	}
	if out["tenant"] != "acme" || out["method"] != "fix-sized" {
		t.Fatalf("acme envelope: %v", out)
	}
	if _, ok := out["degraded"]; ok {
		t.Fatalf("healthy fleet marked degraded: %v", out)
	}

	code, out = do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")
	if code != http.StatusOK || out["tenant"] != "solo" {
		t.Fatalf("solo estimate: %d %v", code, out)
	}

	// Unknown label estimates to exactly zero, as on the legacy route.
	code, out = do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=nosuchlabel", "")
	if code != http.StatusOK || out["estimate"] != 0.0 {
		t.Fatalf("unknown label: %d %v", code, out)
	}

	// Unknown tenant and invalid names map to the envelope.
	code, out = do(t, "GET", srv.URL+"/v1/t/ghost/estimate?q=l0", "")
	if code != http.StatusNotFound || out["code"] != "unknown_tenant" {
		t.Fatalf("unknown tenant: %d %v", code, out)
	}
	code, out = do(t, "GET", srv.URL+"/v1/t/..%2Fescape/estimate?q=l0", "")
	if code != http.StatusBadRequest || out["code"] != "bad_tenant" {
		t.Fatalf("traversal name: %d %v", code, out)
	}

	// The default tenant is the live corpus: same answer as the legacy
	// route, by name.
	if code, _ := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatal("seeding corpus")
	}
	_, legacy := do(t, "GET", srv.URL+"/v1/estimate?q=laptop(brand)&method=recursive", "")
	code, byName := do(t, "GET", srv.URL+"/v1/t/default/estimate?q=laptop(brand)&method=recursive", "")
	if code != http.StatusOK || byName["estimate"] != legacy["estimate"] {
		t.Fatalf("default tenant diverged from legacy route: %v vs %v", byName, legacy)
	}

	// Tenant stats and the registry listing.
	code, out = do(t, "GET", srv.URL+"/v1/t/acme/stats", "")
	if code != http.StatusOK || out["requests"].(float64) < 1 {
		t.Fatalf("acme stats: %d %v", code, out)
	}
	if out["backend"] != "frozen" || out["resident_bytes"].(float64) <= 0 {
		t.Fatalf("acme stats backend accounting: %v", out)
	}
	code, out = do(t, "GET", srv.URL+"/v1/tenants", "")
	if code != http.StatusOK || out["default"] != DefaultTenant {
		t.Fatalf("tenants: %d %v", code, out)
	}
	resident, ok := out["resident"].([]any)
	if !ok || len(resident) < 2 {
		t.Fatalf("resident listing: %v", out)
	}
	shapes, ok := out["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("tenants listing has no per-tenant shapes: %v", out)
	}
	acmeShape, ok := shapes["acme"].(map[string]any)
	if !ok || acmeShape["backend"] != "frozen" || acmeShape["resident_bytes"].(float64) <= 0 {
		t.Fatalf("acme shape: %v", shapes)
	}
	defShape, ok := shapes[DefaultTenant].(map[string]any)
	if !ok || defShape["backend"] != "frozen" {
		t.Fatalf("default tenant shape: %v", shapes)
	}

	// /v1/stats gains the per-tenant section without touching the flat
	// fields dashboards scrape.
	code, out = do(t, "GET", srv.URL+"/v1/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	for _, flat := range []string{"endpoints", "resilience", "subcache"} {
		if _, ok := out[flat]; !ok {
			t.Fatalf("stats lost flat field %q", flat)
		}
	}
	tenants, ok := out["tenants"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no tenants section: %v", out)
	}
	acme, ok := tenants["acme"].(map[string]any)
	if !ok || acme["requests"].(float64) < 1 {
		t.Fatalf("tenants section: %v", tenants)
	}
	if acme["backend"] != "frozen" || acme["resident_bytes"].(float64) <= 0 {
		t.Fatalf("tenants section backend accounting: %v", acme)
	}
	if out["backend"] != "frozen" || out["resident_bytes"].(float64) <= 0 {
		t.Fatalf("stats backend accounting: backend=%v resident_bytes=%v",
			out["backend"], out["resident_bytes"])
	}
	if _, ok := out["fleet"]; !ok {
		t.Fatalf("stats has no fleet registry section")
	}
}

func TestTenantQuota(t *testing.T) {
	srv, h := newFleetServer(t, Options{Resilience: ResilienceOptions{TenantQuota: 1}})
	// Occupy acme's only quota slot directly, then watch the route shed
	// — and other tenants stay unaffected.
	if !h.quota.Acquire("acme") {
		t.Fatal("priming quota")
	}
	code, out := do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=l0", "")
	if code != http.StatusTooManyRequests || out["code"] != "shed" {
		t.Fatalf("quota shed: %d %v", code, out)
	}
	if code, _ := do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0", ""); code != http.StatusOK {
		t.Fatalf("other tenant affected by acme quota: %d", code)
	}
	h.quota.Release("acme")
	if code, _ := do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=l0", ""); code != http.StatusOK {
		t.Fatalf("released quota still shedding: %d", code)
	}
	// The shed is visible per tenant in /v1/stats.
	_, stats := do(t, "GET", srv.URL+"/v1/stats", "")
	acme := stats["tenants"].(map[string]any)["acme"].(map[string]any)
	if acme["shed"].(float64) != 1 {
		t.Fatalf("tenant shed counter: %v", acme)
	}
}

// TestTenantReloadEndpoint: POST /v1/t/{tenant}/reload swaps in the
// tenant's current on-disk snapshot and bumps its generation; the new
// summary brings fresh caches, so the next estimate is computed against
// the reloaded data instead of replayed from the old summary's cache.
func TestTenantReloadEndpoint(t *testing.T) {
	srv, h := newFleetServer(t, Options{})

	// Warm the tenant and its sub-estimate cache.
	code, out := do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %v", code, out)
	}
	before := out["estimate"].(float64)
	do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")

	code, out = do(t, "POST", srv.URL+"/v1/t/solo/reload", "")
	if code != http.StatusOK || out["reloaded"] != true {
		t.Fatalf("reload: %d %v", code, out)
	}
	gen := out["generation"].(float64)
	if gen < 2 {
		t.Fatalf("generation after reload: %v", out)
	}
	if g := h.flt.Generation("solo"); g != uint64(gen) {
		t.Fatalf("endpoint generation %v != registry %d", gen, g)
	}

	// Same snapshot file, so the reloaded summary answers the same.
	code, out = do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")
	if code != http.StatusOK || out["estimate"].(float64) != before {
		t.Fatalf("estimate after reload: %d %v (want %v)", code, out, before)
	}

	// A fleet tenant's stats report its generation as its epoch.
	code, out = do(t, "GET", srv.URL+"/v1/t/solo/stats", "")
	if code != http.StatusOK {
		t.Fatalf("tenant stats: %d %v", code, out)
	}
	if out["epoch"].(float64) != gen {
		t.Fatalf("tenant stats epoch %v != generation %v", out["epoch"], gen)
	}

	// Unknown tenants and bad methods keep their envelopes.
	code, out = do(t, "POST", srv.URL+"/v1/t/nosuch/reload", "")
	if code != http.StatusNotFound || out["code"] != "unknown_tenant" {
		t.Fatalf("reload unknown: %d %v", code, out)
	}
	code, _ = do(t, "GET", srv.URL+"/v1/t/solo/reload", "")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d", code)
	}
}

// TestCorpusSnapshotServesAsTenant pins the publishing workflow: a
// corpus's summary.tlat, copied into a fleet root, serves as a tenant
// whose estimates equal the corpus's own /v1/estimate bit for bit under
// every paper method.
func TestCorpusSnapshotServesAsTenant(t *testing.T) {
	dir := t.TempDir()
	c, err := corpus.Create(dir, corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{3, 4, 5, 6}
	var queries []string
	for _, profile := range datagen.AllProfiles() {
		dict := labeltree.NewDict()
		tree, err := datagen.Generate(datagen.Config{Profile: profile, Scale: 1500, Seed: 3}, dict)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := xmlparse.Write(&b, tree); err != nil {
			t.Fatal(err)
		}
		if err := c.AddXML(string(profile), &b); err != nil {
			t.Fatal(err)
		}
		wl, err := workload.Positive(tree, workload.Options{Sizes: sizes, PerSize: 8, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			for _, q := range wl[size] {
				queries = append(queries, q.Pattern.String(dict))
			}
		}
	}
	if len(queries) < len(sizes)*len(datagen.AllProfiles()) {
		t.Fatalf("workload produced only %d queries", len(queries))
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, fleet.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "published"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "published", fleet.SummaryFile), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandlerOptions(c, Options{
		Fleet: fleet.NewRegistry(fleet.RegistryOptions{Root: root}),
	}))
	t.Cleanup(srv.Close)

	for _, method := range core.Methods() {
		for _, qs := range queries {
			params := url.Values{"q": {qs}, "method": {string(method)}}.Encode()
			code, want := do(t, "GET", srv.URL+"/v1/estimate?"+params, "")
			if code != http.StatusOK {
				t.Fatalf("%s %s: corpus answered %d %v", method, qs, code, want)
			}
			code, got := do(t, "GET", srv.URL+"/v1/t/published/estimate?"+params, "")
			if code != http.StatusOK {
				t.Fatalf("%s %s: tenant answered %d %v", method, qs, code, got)
			}
			if got["estimate"] != want["estimate"] || got["method"] != want["method"] {
				t.Errorf("%s %s: tenant %v, corpus %v", method, qs, got, want)
			}
		}
	}
}

// TestTenantEstimateMetrics: a fleet tenant's estimates feed the same
// per-method metrics as the corpus's. Each served estimate moves
// estimate.recursive+voting.latency_seconds by one; the first moves
// subcache.recursive+voting.misses and its repeats move .hits. Batch
// items move the cache counters alike but not the latency histogram.
func TestTenantEstimateMetrics(t *testing.T) {
	srv, _ := newFleetServer(t, Options{})
	const (
		lat    = "estimate.recursive+voting.latency_seconds"
		hits   = "subcache.recursive+voting.hits"
		misses = "subcache.recursive+voting.misses"
	)
	prev := decodeMetrics(t, srv.URL)
	check := func(when string, dLat, dHits, dMisses uint64) {
		t.Helper()
		s := decodeMetrics(t, srv.URL)
		got := [3]uint64{s.Histograms[lat].Count - prev.Histograms[lat].Count,
			s.Counters[hits] - prev.Counters[hits], s.Counters[misses] - prev.Counters[misses]}
		if want := [3]uint64{dLat, dHits, dMisses}; got != want {
			t.Fatalf("%s moved latency, hits, misses by %v, want %v", when, got, want)
		}
		prev = s
	}
	for i := 0; i < 3; i++ {
		if code, out := do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=l0(l1(l2,l3))", ""); code != 200 {
			t.Fatalf("tenant estimate %d: %d %v", i, code, out)
		}
		if i == 0 {
			check("the first tenant estimate", 1, 0, 1)
		} else {
			check(fmt.Sprintf("repeat %d", i), 1, 1, 0)
		}
	}

	if code, out := do(t, "POST", srv.URL+"/v1/docs/sample", doc); code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, out)
	}
	const q = "laptops(laptop(brand,price))"
	if code, out := do(t, "GET", srv.URL+"/v1/estimate?q="+q, ""); code != 200 {
		t.Fatalf("estimate: %d %v", code, out)
	}
	check("a corpus estimate", 1, 0, 1)
	if code, out := postBatch(t, srv.URL, `{"queries": ["`+q+`", "`+q+`", "computer(laptops(laptop(brand,price)))"]}`); code != 200 {
		t.Fatalf("batch: %d %v", code, out)
	}
	check("a batch of two repeats and one new query", 0, 2, 1)
}

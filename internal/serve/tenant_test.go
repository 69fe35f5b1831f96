package serve

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// writeFleetTenant materializes a tenant under root: nShards snapshot
// files (or a single summary.tlat) over a small deterministic forest
// labeled l0..l3.
func writeFleetTenant(t *testing.T, root, name string, nShards int) {
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
	write := func(path string, group []*labeltree.Tree) {
		sum, err := core.BuildForestContext(context.Background(), group, core.BuildOptions{K: 3})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := sum.WriteTo(f); err != nil {
			t.Fatal(err)
		}
	}
	if nShards == 1 {
		write(filepath.Join(dir, fleet.SummaryFile), trees)
		return
	}
	for s := 0; s < nShards; s++ {
		var group []*labeltree.Tree
		for i, tree := range trees {
			if i%nShards == s {
				group = append(group, tree)
			}
		}
		write(filepath.Join(dir, fleet.ShardFile(s)), group)
	}
}

// newFleetServer builds a server whose corpus holds the sample doc and
// whose fleet root holds tenants "acme" (2 shards) and "solo" (single).
func newFleetServer(t *testing.T, opts Options) (*httptest.Server, *Handler) {
	t.Helper()
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	writeFleetTenant(t, root, "acme", 2)
	writeFleetTenant(t, root, "solo", 1)
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

	// Sharded tenant answers with shard accounting.
	code, out := do(t, "GET", srv.URL+"/v1/t/acme/estimate?q=l0(l1)&method=fix-sized", "")
	if code != http.StatusOK {
		t.Fatalf("acme estimate: %d %v", code, out)
	}
	if out["tenant"] != "acme" || out["method"] != "fix-sized" {
		t.Fatalf("acme envelope: %v", out)
	}
	if out["shards_total"] != 2.0 || out["shards_answered"] != 2.0 {
		t.Fatalf("acme shard accounting: %v", out)
	}
	if _, ok := out["degraded"]; ok {
		t.Fatalf("healthy fleet marked degraded: %v", out)
	}

	// Single-summary tenant: no shard accounting on the wire.
	code, out = do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")
	if code != http.StatusOK || out["tenant"] != "solo" {
		t.Fatalf("solo estimate: %d %v", code, out)
	}
	if _, ok := out["shards_total"]; ok {
		t.Fatalf("single tenant leaked shard fields: %v", out)
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
	if code != http.StatusOK || out["shards"] != 2.0 || out["requests"].(float64) < 1 {
		t.Fatalf("acme stats: %d %v", code, out)
	}
	if out["backend"] != "shards" || out["resident_bytes"].(float64) <= 0 {
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
	if !ok || acmeShape["backend"] != "shards" || acmeShape["resident_bytes"].(float64) <= 0 {
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
	for _, flat := range []string{"cache_hits", "endpoints", "resilience", "subcache"} {
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
	if acme["backend"] != "shards" || acme["resident_bytes"].(float64) <= 0 {
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
// tenant's current on-disk snapshots and rolls the cache scope, so the
// next estimate reflects the new data instead of a stale cached answer.
func TestTenantReloadEndpoint(t *testing.T) {
	srv, h := newFleetServer(t, Options{})

	// Warm the tenant and its query cache.
	code, out := do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %v", code, out)
	}
	before := out["estimate"].(float64)
	do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "") // cache it

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

	// Same snapshot files, so the answer is unchanged — but it must be
	// recomputed under the new scope, not replayed from the old cache.
	code, out = do(t, "GET", srv.URL+"/v1/t/solo/estimate?q=l0(l1)", "")
	if code != http.StatusOK || out["estimate"].(float64) != before {
		t.Fatalf("estimate after reload: %d %v (want %v)", code, out, before)
	}

	// Stats surface the scope discriminator.
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

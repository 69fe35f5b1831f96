package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/fleet"
)

// writeTenantDir materializes a tenant under root: a single summary.tlat
// when shards == 1, else one shard snapshot per non-empty shard group.
func writeTenantDir(t *testing.T, root, name string, seed int64, shards int) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, trees, names := testCorpus(t, seed, 6, 16)
	opts := core.BuildOptions{K: 3}
	write := func(path string, sum *core.Summary) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := sum.WriteTo(f); err != nil {
			t.Fatal(err)
		}
	}
	if shards == 1 {
		sum, err := core.BuildForestContext(context.Background(), trees, opts)
		if err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(dir, fleet.SummaryFile), sum)
		return
	}
	for i, sum := range buildShards(t, trees, names, shards, opts) {
		write(filepath.Join(dir, fleet.ShardFile(i)), sum)
	}
}

func TestLoadTenantSharded(t *testing.T) {
	root := t.TempDir()
	writeTenantDir(t, root, "acme", 21, 3)
	tn, err := fleet.LoadTenant(filepath.Join(root, "acme"), "acme")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Shards < 2 || tn.Gather == nil {
		t.Fatalf("want a sharded tenant, got %d shards (gather %v)", tn.Shards, tn.Gather)
	}
	q, err := tn.Summary.ParseQuery("l0(l1)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Estimate(context.Background(), q, core.MethodFixSized, fleet.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsAnswered != tn.Shards || res.Partial {
		t.Fatalf("healthy sharded tenant answered %+v", res)
	}
	if tn.Summary.Lattice() != nil {
		t.Fatal("loaded tenant should hold no map-backed lattice")
	}
}

func TestRegistryLoadEvictPin(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 5; i++ {
		writeTenantDir(t, root, fmt.Sprintf("t%d", i), int64(i), 1)
	}
	r := fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResident: 2})

	// A pinned install never ages out.
	def := fleet.NewTenant("default", mustSummary(t, 99))
	if err := r.Install(def); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("t%d", i)
		tn, err := r.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		if tn.Name != name {
			t.Fatalf("Acquire(%s) returned %q", name, tn.Name)
		}
	}
	st := r.Stats()
	if st.Loads != 5 || st.Evictions != 3 {
		t.Fatalf("want 5 loads, 3 evictions, got %+v", st)
	}
	if st.Resident != 3 || st.Pinned != 1 { // 2 LRU slots + pinned default
		t.Fatalf("want 3 resident (1 pinned), got %+v", st)
	}
	if !r.Loaded("default") {
		t.Fatal("pinned default evicted")
	}
	// Re-acquiring an evicted tenant reloads it.
	if _, err := r.Acquire(ctx, "t0"); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Loads != 6 {
		t.Fatalf("re-acquire did not reload: %+v", r.Stats())
	}

	if _, err := r.Acquire(ctx, "nosuch"); !errors.Is(err, fleet.ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
	if _, err := r.Acquire(ctx, "../escape"); !errors.Is(err, fleet.ErrBadName) {
		t.Fatalf("want ErrBadName, got %v", err)
	}
	if r.Loaded("nosuch") {
		t.Fatal("failed load left a resident slot")
	}
}

// writeCompressedTenantDir is writeTenantDir with every snapshot in the
// compressed TLCZ form — same .tlat filenames, loaders detect by magic.
func writeCompressedTenantDir(t *testing.T, root, name string, seed int64, shards int) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	_, trees, names := testCorpus(t, seed, 6, 16)
	opts := core.BuildOptions{K: 3}
	write := func(path string, sum *core.Summary) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := sum.WriteCompressed(f); err != nil {
			t.Fatal(err)
		}
	}
	if shards == 1 {
		sum, err := core.BuildForestContext(context.Background(), trees, opts)
		if err != nil {
			t.Fatal(err)
		}
		write(filepath.Join(dir, fleet.SummaryFile), sum)
		return
	}
	for i, sum := range buildShards(t, trees, names, shards, opts) {
		write(filepath.Join(dir, fleet.ShardFile(i)), sum)
	}
}

// TestLoadTenantCompressed: LoadTenant must detect compressed snapshots
// by magic — same filenames as frozen ones — and answer estimates
// bit-identically to the frozen-loaded twin of the same tenant, at a
// smaller resident footprint.
func TestLoadTenantCompressed(t *testing.T) {
	root := t.TempDir()
	for _, shards := range []int{1, 3} {
		frozenName := fmt.Sprintf("froz%d", shards)
		compName := fmt.Sprintf("comp%d", shards)
		writeTenantDir(t, root, frozenName, 33, shards)
		writeCompressedTenantDir(t, root, compName, 33, shards)
		froz, err := fleet.LoadTenant(filepath.Join(root, frozenName), frozenName)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := fleet.LoadTenant(filepath.Join(root, compName), compName)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Shards != shards || comp.Shards != froz.Shards {
			t.Fatalf("shards=%d: loaded %d compressed / %d frozen shards",
				shards, comp.Shards, froz.Shards)
		}
		if shards == 1 {
			if got := comp.StoreKind(); got != "compressed" {
				t.Fatalf("compressed tenant StoreKind() = %q", got)
			}
			if got := froz.StoreKind(); got != "frozen" {
				t.Fatalf("frozen tenant StoreKind() = %q", got)
			}
		}
		if comp.Summary.Lattice() != nil {
			t.Fatal("compressed tenant must hold no map-backed lattice")
		}
		if cb, fb := comp.ResidentBytes(), froz.ResidentBytes(); cb <= 0 || cb >= fb {
			t.Fatalf("shards=%d: compressed resident %d vs frozen %d", shards, cb, fb)
		}
		for _, qs := range []string{"l0(l1)", "l1(l2,l3)", "l0(l1(l2))"} {
			fq, err := froz.Summary.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			cq, err := comp.Summary.ParseQuery(qs)
			if err != nil {
				t.Fatalf("parse %q against compressed tenant: %v", qs, err)
			}
			fr, err := froz.Estimate(context.Background(), fq, core.MethodRecursiveVoting, fleet.EstimateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			cr, err := comp.Estimate(context.Background(), cq, core.MethodRecursiveVoting, fleet.EstimateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if cr.Estimate != fr.Estimate {
				t.Errorf("shards=%d query %q: compressed %v != frozen %v",
					shards, qs, cr.Estimate, fr.Estimate)
			}
		}
	}
}

// TestRegistryByteBudget: MaxResidentBytes must evict LRU tenants once
// the summed footprint passes the budget — but never the newest load
// itself, so an oversized tenant still serves.
func TestRegistryByteBudget(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		writeTenantDir(t, root, fmt.Sprintf("t%d", i), int64(i), 1)
	}
	probe := fleet.NewRegistry(fleet.RegistryOptions{Root: root})
	ctx := context.Background()
	tn, err := probe.Acquire(ctx, "t0")
	if err != nil {
		t.Fatal(err)
	}
	one := int64(tn.ResidentBytes())
	if one <= 0 {
		t.Fatalf("tenant resident bytes = %d", one)
	}

	// Budget below a single tenant: each load evicts the previous one,
	// but the tenant just loaded always stays resident.
	r := fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResidentBytes: one / 2})
	for i := 0; i < 3; i++ {
		if _, err := r.Acquire(ctx, fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
		if st := r.Stats(); st.Resident != 1 {
			t.Fatalf("after load %d: %d resident under tiny budget", i, st.Resident)
		}
	}
	st := r.Stats()
	if st.Evictions != 2 {
		t.Fatalf("want 2 byte-budget evictions, got %+v", st)
	}
	if st.ResidentBytes <= 0 || st.MaxResidentBytes != one/2 {
		t.Fatalf("stats bytes not reported: %+v", st)
	}

	// Budget fitting roughly two tenants: the third load evicts only the
	// least recently used one.
	r2 := fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResidentBytes: 2*one + one/2})
	for i := 0; i < 3; i++ {
		if _, err := r2.Acquire(ctx, fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := r2.Stats(); st.Resident != 2 || st.Evictions != 1 {
		t.Fatalf("two-tenant budget: %+v", st)
	}
	if r2.Loaded("t0") {
		t.Fatal("LRU tenant t0 survived the byte budget")
	}
}

func mustSummary(t *testing.T, seed int64) *core.Summary {
	t.Helper()
	_, trees, _ := testCorpus(t, seed, 4, 12)
	sum, err := core.BuildForestContext(context.Background(), trees, core.BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestRegistryConcurrent hammers a small-LRU registry with concurrent
// acquires and estimates: tenants load, evict, and reload under traffic
// while in-flight requests keep using the references they hold. Run
// under -race by make check.
func TestRegistryConcurrent(t *testing.T) {
	root := t.TempDir()
	const tenants = 6
	for i := 0; i < tenants; i++ {
		shards := 1 + i%3
		writeTenantDir(t, root, fmt.Sprintf("t%d", i), int64(i), shards)
	}
	r := fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResident: 2})
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("t%d", rng.Intn(tenants))
				tn, err := r.Acquire(ctx, name)
				if err != nil {
					t.Errorf("Acquire(%s): %v", name, err)
					return
				}
				q, err := tn.Summary.ParseQuery("l0(l1)")
				if err != nil {
					t.Errorf("parse on %s: %v", name, err)
					return
				}
				if _, err := tn.Estimate(ctx, q, core.MethodFixSized, fleet.EstimateOptions{}); err != nil {
					t.Errorf("estimate on %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := r.Stats(); st.Resident > 2 {
		t.Fatalf("resident count %d exceeds MaxResident", st.Resident)
	}
}

// TestRegistryReload: Reload swaps in freshly loaded snapshots without
// evicting the serving copy — the old tenant keeps answering for
// requests already holding it, the generation advances so epoch-less
// cache scopes roll over, and pinned installs refuse to be reloaded.
func TestRegistryReload(t *testing.T) {
	root := t.TempDir()
	writeTenantDir(t, root, "acme", 7, 1)
	r := fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResident: 2})
	ctx := context.Background()

	old, err := r.Acquire(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	gen := r.Generation("acme")
	if gen == 0 {
		t.Fatal("generation still zero after load")
	}

	// New snapshots land on disk (a refrozen replica published them),
	// then the fleet picks them up.
	writeTenantDir(t, root, "acme", 8, 1)
	fresh, err := r.Reload(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("Reload returned the old tenant")
	}
	if g := r.Generation("acme"); g != gen+1 {
		t.Fatalf("generation = %d, want %d", g, gen+1)
	}
	if st := r.Stats(); st.Reloads != 1 {
		t.Fatalf("stats reloads = %d, want 1", st.Reloads)
	}

	// The displaced tenant is immutable and still serves.
	q, err := old.Summary.ParseQuery("l0(l1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Estimate(ctx, q, core.MethodFixSized, fleet.EstimateOptions{}); err != nil {
		t.Fatalf("old tenant after reload: %v", err)
	}
	got, err := r.Acquire(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Fatal("Acquire after reload did not return the fresh tenant")
	}

	// Pinned tenants are operator-installed, not snapshot-backed.
	if err := r.Install(fleet.NewTenant("default", mustSummary(t, 99))); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Reload(ctx, "default"); err == nil {
		t.Fatal("reloading a pinned tenant should fail")
	}
	if _, err := r.Reload(ctx, "nosuch"); !errors.Is(err, fleet.ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
}

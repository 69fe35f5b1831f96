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
	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// testCorpus builds a deterministic forest of nDocs random documents
// sharing one dictionary.
func testCorpus(t *testing.T, seed int64, nDocs, docSize int) []*labeltree.Tree {
	t.Helper()
	dict, ids := treetest.Alphabet(8)
	rng := rand.New(rand.NewSource(seed))
	trees := make([]*labeltree.Tree, nDocs)
	for i := range trees {
		trees[i] = treetest.RandomTree(rng, docSize, ids, dict)
	}
	return trees
}

// writeTenantDir materializes a tenant under root: one summary.tlat,
// written by write (a summary's WriteTo or WriteCompressed).
func writeTenantDir(t *testing.T, root, name string, seed int64, write func(*core.Summary, *os.File) error) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sum, err := core.BuildForestContext(context.Background(), testCorpus(t, seed, 6, 16), core.BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, fleet.SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(sum, f); err != nil {
		t.Fatal(err)
	}
}

func writeFrozen(sum *core.Summary, f *os.File) error {
	_, err := sum.WriteTo(f)
	return err
}

func writeCompressed(sum *core.Summary, f *os.File) error {
	_, err := sum.WriteCompressed(f)
	return err
}

func TestRegistryLoadEvict(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 5; i++ {
		writeTenantDir(t, root, fmt.Sprintf("t%d", i), int64(i), writeFrozen)
	}
	r := fleet.NewRegistry(fleet.RegistryOptions{Root: root, MaxResident: 2})

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("t%d", i)
		sum, err := r.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		if sum == nil {
			t.Fatalf("Acquire(%s) returned no summary", name)
		}
	}
	st := r.Stats()
	if st.Loads != 5 || st.Evictions != 3 {
		t.Fatalf("want 5 loads, 3 evictions, got %+v", st)
	}
	if st.Resident != 2 {
		t.Fatalf("want 2 resident, got %+v", st)
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
	for _, name := range r.Resident() {
		if name == "nosuch" {
			t.Fatal("failed load left a resident slot")
		}
	}
}

// TestRegistryCountsOnlySuccessfulLoads: Stats().Loads counts the loads
// that made a tenant resident. Acquires that fail — a tenant directory
// without summary.tlat, a name with no directory — load nothing and must
// not count, however often they repeat.
func TestRegistryCountsOnlySuccessfulLoads(t *testing.T) {
	root := t.TempDir()
	writeTenantDir(t, root, "good", 1, writeFrozen)
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}
	r := fleet.NewRegistry(fleet.RegistryOptions{Root: root})
	ctx := context.Background()
	if _, err := r.Acquire(ctx, "good"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for _, name := range []string{"empty", "missing"} {
			if _, err := r.Acquire(ctx, name); !errors.Is(err, fleet.ErrUnknownTenant) {
				t.Fatalf("Acquire(%s): want ErrUnknownTenant, got %v", name, err)
			}
		}
	}
	if st := r.Stats(); st.Loads != 1 || st.Resident != 1 {
		t.Fatalf("one successful load and six failed acquires: want 1 load, 1 resident, got %+v", st)
	}
	for _, name := range []string{"empty", "missing"} {
		if g := r.Generation(name); g != 0 {
			t.Fatalf("Generation(%s) = %d after failed loads, want 0", name, g)
		}
	}
}

// TestLoadTenantCompressed: LoadTenant must detect a compressed snapshot
// by magic — same filename as a frozen one — and answer estimates
// bit-identically to the frozen-loaded twin of the same tenant, at a
// smaller resident footprint.
func TestLoadTenantCompressed(t *testing.T) {
	root := t.TempDir()
	writeTenantDir(t, root, "froz", 33, writeFrozen)
	writeTenantDir(t, root, "comp", 33, writeCompressed)
	froz, err := fleet.LoadTenant(filepath.Join(root, "froz"), "froz")
	if err != nil {
		t.Fatal(err)
	}
	comp, err := fleet.LoadTenant(filepath.Join(root, "comp"), "comp")
	if err != nil {
		t.Fatal(err)
	}
	if got := comp.StoreKind(); got != "compressed" {
		t.Fatalf("compressed tenant StoreKind() = %q", got)
	}
	if got := froz.StoreKind(); got != "frozen" {
		t.Fatalf("frozen tenant StoreKind() = %q", got)
	}
	if comp.Lattice() != nil {
		t.Fatal("compressed tenant must hold no map-backed lattice")
	}
	if cb, fb := comp.ResidentBytes(), froz.ResidentBytes(); cb <= 0 || cb >= fb {
		t.Fatalf("compressed resident %d vs frozen %d", cb, fb)
	}
	ctx := context.Background()
	for _, qs := range []string{"l0(l1)", "l1(l2,l3)", "l0(l1(l2))"} {
		fq, err := froz.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		cq, err := comp.ParseQuery(qs)
		if err != nil {
			t.Fatalf("parse %q against compressed tenant: %v", qs, err)
		}
		fr, err := froz.EstimateContext(ctx, fq, core.MethodRecursiveVoting)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := comp.EstimateContext(ctx, cq, core.MethodRecursiveVoting)
		if err != nil {
			t.Fatal(err)
		}
		if cr != fr {
			t.Errorf("query %q: compressed %v != frozen %v", qs, cr, fr)
		}
	}
}

// TestRegistryByteBudget: MaxResidentBytes must evict LRU tenants once
// the summed footprint passes the budget — but never the newest load
// itself, so an oversized tenant still serves.
func TestRegistryByteBudget(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 3; i++ {
		writeTenantDir(t, root, fmt.Sprintf("t%d", i), int64(i), writeFrozen)
	}
	probe := fleet.NewRegistry(fleet.RegistryOptions{Root: root})
	ctx := context.Background()
	sum, err := probe.Acquire(ctx, "t0")
	if err != nil {
		t.Fatal(err)
	}
	one := int64(sum.ResidentBytes())
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
	if _, ok := r2.Peek("t0"); ok {
		t.Fatal("LRU tenant t0 survived the byte budget")
	}
}

// TestRegistryConcurrent hammers a small-LRU registry with concurrent
// acquires and estimates: tenants load, evict, and reload under traffic
// while in-flight requests keep using the references they hold. Run
// under -race by make check.
func TestRegistryConcurrent(t *testing.T) {
	root := t.TempDir()
	const tenants = 6
	for i := 0; i < tenants; i++ {
		writeTenantDir(t, root, fmt.Sprintf("t%d", i), int64(i), writeFrozen)
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
				sum, err := r.Acquire(ctx, name)
				if err != nil {
					t.Errorf("Acquire(%s): %v", name, err)
					return
				}
				q, err := sum.ParseQuery("l0(l1)")
				if err != nil {
					t.Errorf("parse on %s: %v", name, err)
					return
				}
				if _, err := sum.EstimateContext(ctx, q, core.MethodFixSized); err != nil {
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

// TestRegistryReload: Reload swaps in a freshly loaded snapshot without
// evicting the serving copy — the old summary keeps answering for
// requests already holding it, and the generation advances so
// epoch-less cache scopes roll over.
func TestRegistryReload(t *testing.T) {
	root := t.TempDir()
	writeTenantDir(t, root, "acme", 7, writeFrozen)
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

	// A new snapshot lands on disk (a refrozen replica published it),
	// then the fleet picks it up.
	writeTenantDir(t, root, "acme", 8, writeFrozen)
	fresh, err := r.Reload(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if fresh == old {
		t.Fatal("Reload returned the old summary")
	}
	if g := r.Generation("acme"); g != gen+1 {
		t.Fatalf("generation = %d, want %d", g, gen+1)
	}
	if st := r.Stats(); st.Reloads != 1 {
		t.Fatalf("stats reloads = %d, want 1", st.Reloads)
	}

	// The displaced summary is immutable and still serves.
	q, err := old.ParseQuery("l0(l1)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.EstimateContext(ctx, q, core.MethodFixSized); err != nil {
		t.Fatalf("old summary after reload: %v", err)
	}
	got, err := r.Acquire(ctx, "acme")
	if err != nil {
		t.Fatal(err)
	}
	if got != fresh {
		t.Fatal("Acquire after reload did not return the fresh summary")
	}

	if _, err := r.Reload(ctx, "nosuch"); !errors.Is(err, fleet.ErrUnknownTenant) {
		t.Fatalf("want ErrUnknownTenant, got %v", err)
	}
}

// TestRegistryReloadRacesFirstLoad: a Reload running beside a tenant's
// first Acquire leaves exactly one resident copy, counted once against
// the byte budget, whichever of the two loads finishes first.
func TestRegistryReloadRacesFirstLoad(t *testing.T) {
	root := t.TempDir()
	writeTenantDir(t, root, "acme", 7, writeFrozen)
	ctx := context.Background()
	for i := 0; i < 400; i++ {
		r := fleet.NewRegistry(fleet.RegistryOptions{Root: root})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := r.Acquire(ctx, "acme"); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := r.Reload(ctx, "acme"); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		sum, ok := r.Peek("acme")
		if !ok {
			t.Fatalf("iteration %d: acme not resident", i)
		}
		if st := r.Stats(); st.Resident != 1 || st.ResidentBytes != int64(sum.ResidentBytes()) {
			t.Fatalf("iteration %d: %+v, want one resident copy of %d bytes", i, st, sum.ResidentBytes())
		}
	}
}

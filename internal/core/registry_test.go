package core

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/markov"
	"treelattice/internal/treesketch"
	"treelattice/internal/xmlparse"
)

// registrySample builds a summary with a richer document than buildSample
// so every method has structure to estimate over, plus a query mix
// covering linear paths, branching, and repeated labels.
func registrySample(t *testing.T) (*Summary, *labeltree.Tree, []labeltree.Pattern) {
	t.Helper()
	dict := labeltree.NewDict()
	doc := `<site><people>` +
		strings.Repeat(`<person><name/><address><city/><zip/></address><watch/></person>`, 8) +
		strings.Repeat(`<person><name/><phone/></person>`, 5) +
		`</people><items>` +
		strings.Repeat(`<item><name/><price/><desc><par/></desc></item>`, 6) +
		`</items></site>`
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(tr, BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var queries []labeltree.Pattern
	for _, qs := range []string{
		"person(name)",
		"person(name,address(city))",
		"person(address(city,zip),watch)",
		"item(name,price)",
		"item(desc(par))",
		"site(people(person(name)),items(item))",
	} {
		q, err := sum.ParseQuery(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		queries = append(queries, q)
	}
	return sum, tr, queries
}

// directEstimate computes each method's estimate the way a direct caller
// would — hand-built estimator structs, with no method table and no
// Prepared cache.
func directEstimate(t *testing.T, sum *Summary, tr *labeltree.Tree, m Method, q labeltree.Pattern) float64 {
	t.Helper()
	switch m {
	case MethodRecursive:
		return (&estimate.Recursive{Sum: sum.st}).Estimate(q)
	case MethodRecursiveVoting:
		return (&estimate.Recursive{Sum: sum.st, Voting: true}).Estimate(q)
	case MethodFixSized:
		return (&estimate.FixSized{Sum: sum.st}).Estimate(q)
	case MethodMarkov:
		k := sum.K()
		if k < 2 {
			k = 2
		}
		return markov.BuildForest([]*labeltree.Tree{tr}, k).EstimateTwig(q)
	case MethodTreeSketch:
		return treesketch.Build(tr, treesketchOptions).Estimate(q)
	default:
		t.Fatalf("no direct construction for method %q", m)
		return 0
	}
}

// TestRegistryDifferentialIdentity: routing through the registry must be
// a pure refactor — bit-identical to direct estimator calls for every
// method, on the map, frozen, and compressed backends alike.
func TestRegistryDifferentialIdentity(t *testing.T) {
	methods := RegisteredMethods()
	for _, backend := range []string{"map", "frozen", "compressed"} {
		sum, tr, queries := registrySample(t)
		switch backend {
		case "frozen":
			sum = sum.Freeze()
		case "compressed":
			sum = sum.Compress()
		}
		if got := sum.StoreKind(); got != backend {
			t.Fatalf("StoreKind() = %q, want %q", got, backend)
		}
		for _, m := range methods {
			for _, q := range queries {
				want := directEstimate(t, sum, tr, m, q)
				got, err := sum.EstimateContext(context.Background(), q, m)
				if err != nil {
					t.Fatalf("%s/%s EstimateContext(%v): %v", backend, m, q, err)
				}
				if got != want {
					t.Errorf("%s/%s query %v: registry %v != direct %v", backend, m, q, got, want)
				}
			}
		}
	}
}

// TestRegistryDifferentialSnapshotFiles: a summary round-tripped through
// each on-disk snapshot form and reloaded by the magic-sniffing
// OpenSnapshotFile — fresh dictionary, exactly the serving path,
// memory-mapped for TLCZ where the platform supports it — must answer
// every decomposition method bit-identically to the original map-backed
// summary. (Document-driven methods never read the store; the in-memory
// backend loop above covers them.)
func TestRegistryDifferentialSnapshotFiles(t *testing.T) {
	sum, _, _ := registrySample(t)
	queryStrings := []string{
		"person(name)",
		"person(name,address(city))",
		"person(address(city,zip),watch)",
		"item(name,price)",
		"item(desc(par))",
		"site(people(person(name)),items(item))",
	}
	methods := []Method{MethodRecursive, MethodRecursiveVoting, MethodFixSized}

	dir := t.TempDir()
	files := []struct {
		kind  string
		write func(io.Writer) (int64, error)
	}{
		{"frozen", sum.WriteTo},
		{"compressed", sum.WriteCompressed},
	}
	for _, fc := range files {
		path := filepath.Join(dir, fc.kind+".tlat")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fc.write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		loaded, err := OpenSnapshotFile(path, labeltree.NewDict())
		if err != nil {
			t.Fatalf("OpenSnapshotFile(%s): %v", fc.kind, err)
		}
		if got := loaded.StoreKind(); got != fc.kind {
			t.Fatalf("loaded %s snapshot: StoreKind() = %q", fc.kind, got)
		}
		if loaded.ResidentBytes() <= 0 {
			t.Fatalf("loaded %s snapshot: ResidentBytes() = %d", fc.kind, loaded.ResidentBytes())
		}
		for _, qs := range queryStrings {
			origQ, err := sum.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			loadedQ, err := loaded.ParseQuery(qs)
			if err != nil {
				t.Fatalf("%s: parse %q against loaded dict: %v", fc.kind, qs, err)
			}
			for _, m := range methods {
				want, err := sum.EstimateContext(context.Background(), origQ, m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.EstimateContext(context.Background(), loadedQ, m)
				if err != nil {
					t.Fatalf("%s/%s: %v", fc.kind, m, err)
				}
				if got != want {
					t.Errorf("%s/%s query %q: loaded %v != original %v", fc.kind, m, qs, got, want)
				}
			}
		}
	}
}

// TestUnknownMethodListsRegistered: the error for an unknown method must
// enumerate what IS registered, so callers can self-correct.
func TestUnknownMethodListsRegistered(t *testing.T) {
	sum, _, _ := registrySample(t)
	_, err := sum.LookupMethod(Method("bogus"))
	if !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("want ErrUnknownMethod, got %v", err)
	}
	for _, m := range RegisteredMethods() {
		if !strings.Contains(err.Error(), string(m)) {
			t.Errorf("error %q does not mention registered method %q", err, m)
		}
	}
}

// TestRegistryFallbackLadder: the degradation ladder comes from
// registered capabilities — the recursive methods must degrade to
// fix-sized, terminal methods to nothing.
func TestRegistryFallbackLadder(t *testing.T) {
	cases := []struct {
		method Method
		want   Method
	}{
		{MethodRecursive, MethodFixSized},
		{MethodRecursiveVoting, MethodFixSized},
		{MethodFixSized, ""},
		{MethodMarkov, ""},
		{MethodTreeSketch, ""},
	}
	for _, c := range cases {
		got, ok := Fallback(c.method)
		if c.want == "" {
			if ok {
				t.Errorf("Fallback(%s) = %q, want none", c.method, got)
			}
			continue
		}
		if !ok || got != c.want {
			t.Errorf("Fallback(%s) = %q/%v, want %q", c.method, got, ok, c.want)
		}
	}
}

// TestUnboundSourceUnavailable: document-needing methods on a summary
// with no bound source must fail with ErrMethodUnavailable, not panic.
func TestUnboundSourceUnavailable(t *testing.T) {
	sum, _, queries := registrySample(t)
	sum.BindSource(nil)
	for _, m := range []Method{MethodMarkov, MethodTreeSketch} {
		_, err := sum.EstimateContext(context.Background(), queries[0], m)
		if !errors.Is(err, ErrMethodUnavailable) {
			t.Errorf("method %s without source: got %v, want ErrMethodUnavailable", m, err)
		}
	}
	// The decomposition methods need no documents and must be untouched.
	if _, err := sum.EstimateContext(context.Background(), queries[0], MethodRecursiveVoting); err != nil {
		t.Errorf("recursive+voting must not need a source: %v", err)
	}
}

// TestConcurrentRegistryUse: method lookups and table-routed estimates
// across every method racing each other — the -race pass of `make check`
// is the real assertion here.
func TestConcurrentRegistryUse(t *testing.T) {
	sum, _, queries := registrySample(t)
	methods := RegisteredMethods()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				m := methods[(i+j)%len(methods)]
				q := queries[(i*7+j)%len(queries)]
				if _, err := sum.EstimateContext(context.Background(), q, m); err != nil {
					t.Errorf("concurrent %s: %v", m, err)
					return
				}
				if _, err := sum.LookupMethod(m); err != nil {
					t.Errorf("concurrent lookup %s: %v", m, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"treelattice/internal/labeltree"
)

// sampleQueries builds a mixed batch (present patterns, decomposed
// over-size patterns, absent patterns) against buildSample's document.
func sampleQueries(t *testing.T, s *Summary) []labeltree.Pattern {
	t.Helper()
	queries := make([]labeltree.Pattern, 0, 8)
	for _, src := range []string{
		"laptop(brand,price)",
		"computer(laptops(laptop(brand,price)),desktops)",
		"computer(laptops,desktops)",
		"laptop(brand)",
		"computer(laptops(laptop(brand),laptop(price)))",
		"desktops(laptop)", // structurally absent
		"laptop(brand,price)",
	} {
		q, err := s.ParseQuery(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		queries = append(queries, q)
	}
	return queries
}

// TestEstimateBatchMatchesSingle: the batch API is a fan-out, not a
// different estimator — every item must equal the single-query result,
// for every method and worker count.
func TestEstimateBatchMatchesSingle(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	queries := sampleQueries(t, sum)
	for _, method := range Methods() {
		want := make([]float64, len(queries))
		for i, q := range queries {
			v, err := sum.Estimate(q, method)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		for _, workers := range []int{1, 2, 8} {
			results, err := sum.EstimateBatchContext(context.Background(), queries, method, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(queries) {
				t.Fatalf("%d results for %d queries", len(results), len(queries))
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%s w=%d item %d: %v", method, workers, i, r.Err)
				}
				if r.Estimate != want[i] || r.Method != method || r.Degraded {
					t.Fatalf("%s w=%d item %d: got %v/%s/%v want %v/%s", method, workers, i, r.Estimate, r.Method, r.Degraded, want[i], method)
				}
			}
		}
	}
}

func TestEstimateBatchUnknownMethod(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	if _, err := sum.EstimateBatchContext(context.Background(), sampleQueries(t, sum), Method("nope"), BatchOptions{}); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("err = %v, want ErrUnknownMethod", err)
	}
}

func TestEstimateBatchEmpty(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	results, err := sum.EstimateBatchContext(context.Background(), nil, MethodRecursive, BatchOptions{})
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(results))
	}
}

// TestEstimateBatchCancelled: an already-cancelled context fails items
// individually (per-item error envelopes), not the whole call.
func TestEstimateBatchCancelled(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	queries := sampleQueries(t, sum)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := sum.EstimateBatchContext(ctx, queries, MethodRecursive, BatchOptions{DisableFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestEstimateBatchDegrades: an expired deadline with fallback enabled
// degrades recursive items to fix-sized instead of failing them.
func TestEstimateBatchDegrades(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	queries := sampleQueries(t, sum)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	results, err := sum.EstimateBatchContext(ctx, queries, MethodRecursiveVoting, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if !r.Degraded || r.Method != MethodFixSized {
			t.Fatalf("item %d: not degraded to fix-sized: %+v", i, r)
		}
	}
}

// TestFrozenSummaryEstimates: a summary reloaded via ReadFrozen answers
// every method and the batch API bit-identically to the mutable one.
func TestFrozenSummaryEstimates(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dict := labeltree.NewDict()
	frozen, err := ReadFrozen(bytes.NewReader(buf.Bytes()), dict)
	if err != nil {
		t.Fatal(err)
	}
	if got := frozen.StoreKind(); got != "frozen" {
		t.Fatalf("ReadFrozen store kind = %q", got)
	}
	if frozen.K() != sum.K() || frozen.Patterns() != sum.Patterns() || frozen.SizeBytes() != sum.SizeBytes() {
		t.Fatal("frozen summary header diverges")
	}
	queries := sampleQueries(t, sum)
	for _, method := range Methods() {
		for i, q := range queries {
			want, err := sum.Estimate(q, method)
			if err != nil {
				t.Fatal(err)
			}
			// Re-parse against the frozen summary's dictionary.
			fq, err := frozen.ParseQuery(q.String(sum.Dict()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := frozen.Estimate(fq, method)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s query %d: frozen %v != mutable %v", method, i, got, want)
			}
		}
	}
}

// TestBatchSharesCache: a batch of one query repeated hits the shared
// answer cache.
func TestBatchSharesCache(t *testing.T) {
	sum, _, _ := buildSample(t, 2)
	q, err := sum.ParseQuery("computer(laptops(laptop(brand,price)))")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]labeltree.Pattern, 16)
	for i := range batch {
		batch[i] = q
	}
	if _, err := sum.EstimateBatchContext(context.Background(), batch, MethodRecursive, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	st := sum.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no shared-cache hits across a duplicated batch: %+v", st)
	}
}

func TestReadFrozenGarbage(t *testing.T) {
	for i, data := range []string{"", "XXXX", "TLAT\x02", "TLAT\x01\x04\x00"} {
		if _, err := ReadFrozen(strings.NewReader(data), labeltree.NewDict()); err == nil {
			t.Errorf("case %d: ReadFrozen accepted garbage", i)
		}
	}
}

// TestWriteFromSnapshotStores: a summary serializes from whichever
// store it holds — frozen and compressed summaries write the same TLAT
// and TLCZ bytes as the map-backed summary they were taken from.
func TestWriteFromSnapshotStores(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	writers := map[string]func(*Summary, io.Writer) (int64, error){
		"tlat": (*Summary).WriteTo,
		"tlcz": (*Summary).WriteCompressed,
	}
	for _, snap := range []*Summary{sum.Freeze(), sum.Compress()} {
		for form, write := range writers {
			var want, got bytes.Buffer
			if _, err := write(sum, &want); err != nil {
				t.Fatal(err)
			}
			if _, err := write(snap, &got); err != nil {
				t.Fatalf("%s from %s: %v", form, snap.StoreKind(), err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("%s from %s differs from the map-backed bytes", form, snap.StoreKind())
			}
		}
	}
}

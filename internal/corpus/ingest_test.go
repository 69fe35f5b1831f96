package corpus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treelattice/internal/core"
)

const docC = `<computer><desktops><desktop><brand/><price/><ram/></desktop></desktops></computer>`

// ingestDoc returns a structurally varied document so successive adds
// change the counts.
func ingestDoc(i int) string {
	var b strings.Builder
	b.WriteString("<computer><laptops>")
	for j := 0; j <= i%3; j++ {
		b.WriteString("<laptop><brand/><price/></laptop>")
	}
	b.WriteString("</laptops>")
	if i%2 == 0 {
		b.WriteString("<desktops><desktop><brand/></desktop></desktops>")
	}
	b.WriteString("</computer>")
	return b.String()
}

// ingestQueries are the probe queries the differential checks compare on.
var ingestQueries = []string{
	"laptop(brand)",
	"laptop(brand,price)",
	"computer(laptops)",
	"desktop(brand)",
	"laptops(laptop(price))",
}

// assertSameEstimates asserts got and want answer every query
// bit-identically under every registered estimation method.
func assertSameEstimates(t *testing.T, got, want *Corpus, context string) {
	t.Helper()
	for _, m := range core.RegisteredMethods() {
		for _, q := range ingestQueries {
			g, gerr := got.EstimateQuery(q, m)
			w, werr := want.EstimateQuery(q, m)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: %s %q: error mismatch: %v vs %v", context, m, q, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if g != w {
				t.Fatalf("%s: %s %q = %v, want %v", context, m, q, g, w)
			}
		}
	}
}

// buildReference builds a from-scratch corpus over names[i] ↦ ingestDoc(i).
func buildReference(t *testing.T, n int) *Corpus {
	t.Helper()
	ref, err := Create(t.TempDir(), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := ref.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// TestIngestDifferential is the acceptance check at the corpus level: a
// base of 3 documents plus 5 ingested into the delta answers every
// registered estimator bit-identically to a from-scratch rebuild — both
// before any refreeze (merged view) and after one (folded view, served
// straight from the frozen base), on writable and read-only corpora.
func TestIngestDifferential(t *testing.T) {
	for _, readOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("readonly=%v", readOnly), func(t *testing.T) {
			dir := t.TempDir()
			c, err := Create(dir, Options{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
					t.Fatal(err)
				}
			}
			if readOnly {
				if c, err = OpenReadOnly(dir); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.EnableIngest(IngestOptions{}); err != nil {
				t.Fatal(err)
			}
			defer c.DisableIngest()
			for i := 3; i < 8; i++ {
				if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
					t.Fatal(err)
				}
			}
			ref := buildReference(t, 8)
			assertSameEstimates(t, c, ref, "merged before refreeze")
			st := c.IngestStats()
			if st.DeltaDocs != 5 || st.Epoch == 0 {
				t.Fatalf("stats before refreeze: %+v", st)
			}
			if err := c.Refreeze(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertSameEstimates(t, c, ref, "after refreeze")
			st = c.IngestStats()
			if st.DeltaDocs != 0 || st.Refreezes != 1 {
				t.Fatalf("stats after refreeze: %+v", st)
			}
			if got := c.Summary().StoreKind(); got != "frozen" {
				t.Fatalf("serving store kind = %q, want frozen", got)
			}
		})
	}
}

// TestIngestCrashRecovery: documents ingested but never refrozen (the
// "crash" is abandoning the corpus without DisableIngest) are recovered
// on reopen — served merged by both a writable and a read-only open, and
// folded by the writable one's Refreeze — with estimates identical to a
// from-scratch rebuild.
func TestIngestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnableIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 6; i++ {
		if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Fold the first two delta docs so the manifest advances, then add
	// two more that stay unfolded — the crash leaves both folded and
	// unfolded state behind.
	if err := c.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Unfolded removals too: doc-008 never reached a snapshot, doc-000
	// did and leaves a tombstone behind.
	for _, name := range []string{"doc-008", "doc-000"} {
		if err := c.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddXML("doc-000", strings.NewReader(ingestDoc(0))); !errors.Is(err, ErrDocExists) {
		t.Fatalf("re-add before the removal folds: %v, want ErrDocExists", err)
	}
	// Crash: drop the corpus without DisableIngest. Stop the refreezer
	// goroutine only (its timer never fired — interval 0 means kick-only).
	close(c.ing.Load().done)
	c.ing.Load().wg.Wait()

	// The survivors are doc-001..doc-007.
	ref := buildReference(t, 8)
	if err := ref.Remove("doc-000"); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, ro, ref, "read-only recovery")
	if got := ro.Summary().StoreKind(); got != "delta" {
		t.Fatalf("read-only recovered store kind = %q, want delta", got)
	}
	if docs := ro.Docs(); len(docs) != 7 || docs[0] != "doc-001" {
		t.Fatalf("read-only recovery sees docs %v, want doc-001..doc-007", docs)
	}

	rw, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, rw, ref, "writable recovery")
	if err := rw.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := rw.Summary().StoreKind(); got != "frozen" {
		t.Fatalf("store kind after folding the recovered delta = %q, want frozen", got)
	}
	// The fold committed a manifest counting every document, so a reopen
	// re-mines nothing.
	if m, _ := scanManifests(dir); len(m) != 1 || len(m[0].docs) != 7 {
		t.Fatalf("manifests after the recovery fold: %+v", m)
	}
	if _, err := os.Stat(filepath.Join(dir, "docs", "doc-000.tomb")); !os.IsNotExist(err) {
		t.Fatalf("tombstone survived the fold of its removal: %v", err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, again, ref, "reopen after the recovery fold")
	if got := again.Summary().StoreKind(); got != "frozen" {
		t.Fatalf("reopened store kind = %q, want frozen", got)
	}
}

// TestIngestManifestFallback: a newer manifest whose snapshot is
// corrupt is skipped; open falls back to the older valid manifest and
// re-mines the documents it does not cover.
func TestIngestManifestFallback(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnableIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("doc-003", strings.NewReader(ingestDoc(3))); err != nil {
		t.Fatal(err)
	}
	if err := c.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(c.ing.Load().done)
	c.ing.Load().wg.Wait()

	// Fake a torn future refreeze: manifest 99 names a snapshot full of
	// garbage. (A real crash cannot produce this — the manifest commits
	// after the snapshot — but open defends against it anyway.)
	if err := os.WriteFile(filepath.Join(dir, "epoch-000099.tlat"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, 99, "epoch-000099.tlat", []string{"doc-000"}); err != nil {
		t.Fatal(err)
	}

	ref := buildReference(t, 4)
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, ro, ref, "fallback to older manifest")
}

// TestIngestBackpressure: adds past the hard delta limit fail with
// ErrIngestBackpressure and count in stats; a refreeze drains the delta
// and unblocks them.
func TestIngestBackpressure(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(IngestOptions{HardDeltaBytes: 1}); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	err = c.AddXML("b", strings.NewReader(docB))
	if !errors.Is(err, ErrIngestBackpressure) {
		t.Fatalf("over-limit add: %v, want ErrIngestBackpressure", err)
	}
	if st := c.IngestStats(); st.Backpressured != 1 {
		t.Fatalf("backpressured = %d, want 1", st.Backpressured)
	}
	if err := c.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("b", strings.NewReader(docB)); err != nil {
		t.Fatalf("add after refreeze drained delta: %v", err)
	}
}

// TestIngestRefreezeRetriesWithBackoff: injected refreeze failures
// retry until the fault clears, counting failures, and the pipeline
// stays fully serviceable meanwhile.
func TestIngestRefreezeRetriesWithBackoff(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	opts := IngestOptions{
		MaxDeltaDocs: 1, // every add kicks the refreezer
		BackoffBase:  time.Millisecond,
		BackoffMax:   5 * time.Millisecond,
		BackoffSeed:  1,
		RefreezeHook: func(context.Context) error {
			if calls.Add(1) <= 2 {
				return errors.New("injected fault")
			}
			return nil
		},
	}
	if err := c.EnableIngest(opts); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.IngestStats()
		if st.Refreezes >= 1 {
			if st.RefreezeFailures != 2 {
				t.Fatalf("failures = %d, want 2", st.RefreezeFailures)
			}
			if st.RefreezeAttempts != 3 {
				t.Fatalf("attempts = %d, want 3", st.RefreezeAttempts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refreeze never succeeded: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Reads stayed correct throughout.
	ref := createCorpus(t)
	if err := ref.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, c, ref, "after faulty refreezes")
}

// TestIngestRemoveAndDuplicates documents the write surface while
// ingest is enabled: removal works as a negative delta, a removed name
// stays taken until the refreeze that folds its removal, and duplicate
// names are rejected whether they live in the base or the delta.
func TestIngestRemoveAndDuplicates(t *testing.T) {
	c := createCorpus(t)
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	if err := c.AddXML("a", strings.NewReader(docA)); !errors.Is(err, ErrDocExists) {
		t.Fatalf("duplicate base name: %v, want ErrDocExists", err)
	}
	if err := c.AddXML("b", strings.NewReader(docB)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("b", strings.NewReader(docB)); !errors.Is(err, ErrDocExists) {
		t.Fatalf("duplicate delta name: %v, want ErrDocExists", err)
	}
	if err := c.Remove("a"); err != nil {
		t.Fatalf("Remove during ingest: %v", err)
	}
	if got, err := c.EstimateQuery("laptop", core.MethodRecursive); err != nil || got != 2 {
		t.Fatalf("estimate after removing a = %v, %v; want 2", got, err)
	}
	if err := c.AddXML("a", strings.NewReader(docA)); !errors.Is(err, ErrDocExists) {
		t.Fatalf("re-add before the removal folds: %v, want ErrDocExists", err)
	}
	if err := c.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatalf("re-add after the removal folded: %v", err)
	}
	if err := c.EnableIngest(IngestOptions{}); err == nil {
		t.Fatal("double EnableIngest succeeded")
	}
}

// TestIngestCompressedSnapshots: refreezes can publish TLCZ snapshots;
// recovery loads them through the compressed loader.
func TestIngestCompressedSnapshots(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("doc-000", strings.NewReader(ingestDoc(0))); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(IngestOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if err := c.AddXML(fmt.Sprintf("doc-%03d", i), strings.NewReader(ingestDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(c.ing.Load().done)
	c.ing.Load().wg.Wait()

	ref := buildReference(t, 4)
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEstimates(t, ro, ref, "compressed snapshot recovery")
	if got := ro.Summary().StoreKind(); got != "compressed" {
		t.Fatalf("recovered store kind = %q, want compressed", got)
	}
}

package corpus

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/xmlparse"
)

// seqQueries probe the random documents seqDoc generates.
var seqQueries = []string{
	"a(b)",
	"a(b,c)",
	"b(c(d))",
	"r(a(b),e)",
	"a(d,e(f))",
	"c(f)",
}

// seqDoc returns a small random document over the labels a..f under a
// root r, so documents overlap in structure but not in counts.
func seqDoc(rng *rand.Rand) string {
	var b strings.Builder
	var node func(depth int)
	node = func(depth int) {
		l := string(rune('a' + rng.Intn(6)))
		b.WriteString("<" + l + ">")
		if depth < 3 {
			for i := rng.Intn(4); i > 0; i-- {
				node(depth + 1)
			}
		}
		b.WriteString("</" + l + ">")
	}
	b.WriteString("<r>")
	for i := 1 + rng.Intn(3); i > 0; i-- {
		node(1)
	}
	b.WriteString("</r>")
	return b.String()
}

// assertMatchesRebuild checks the acceptance invariant of the write
// path: the corpus lists exactly the surviving documents, and every
// registered method answers bit-identically to a summary mined from
// scratch over them (parsed afresh, in name order).
func assertMatchesRebuild(t *testing.T, c *Corpus, live map[string]string, step string) {
	t.Helper()
	names := make([]string, 0, len(live))
	for n := range live {
		names = append(names, n)
	}
	sort.Strings(names)
	if got := c.Docs(); strings.Join(got, ",") != strings.Join(names, ",") {
		t.Fatalf("%s: Docs() = %v, want %v", step, got, names)
	}
	ref := core.FromLattice(lattice.New(c.Options().K, c.Dict()))
	if len(names) > 0 {
		trees := make([]*labeltree.Tree, len(names))
		for i, n := range names {
			tr, err := xmlparse.Parse(strings.NewReader(live[n]), c.Dict(), xmlparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			trees[i] = tr
		}
		var err error
		if ref, err = core.BuildForestContext(context.Background(), trees, core.BuildOptions{K: c.Options().K}); err != nil {
			t.Fatal(err)
		}
	}
	sum := c.Summary()
	ctx := context.Background()
	for _, qs := range seqQueries {
		q, err := sum.ParseQuery(qs)
		if errors.Is(err, core.ErrUnknownLabel) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range core.RegisteredMethods() {
			got, gerr := sum.EstimateContext(ctx, q, m)
			want, werr := ref.EstimateContext(ctx, q, m)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: %s %s: error mismatch: %v vs rebuild %v", step, m, qs, gerr, werr)
			}
			if gerr == nil && got != want {
				t.Fatalf("%s: %s %s = %v, rebuild %v", step, m, qs, got, want)
			}
		}
	}
}

// crash abandons c the way a killed process would: no DisableIngest, so
// nothing unfolded gets folded. Only the refreezer goroutine is stopped.
func crash(c *Corpus) {
	if st := c.ing.Swap(nil); st != nil {
		close(st.done)
		st.wg.Wait()
	}
}

// TestWritePathSequence drives seeded random interleavings of adds,
// batch adds, removals, re-adds of removed names, refreezes, and crashes
// (optionally losing the newest manifest) followed by reopening with
// both Open and OpenReadOnly — with inline folds, and with background
// ingest writing TLAT or TLCZ snapshots. After every step the corpus
// must match a from-scratch rebuild over the surviving documents.
func TestWritePathSequence(t *testing.T) {
	modes := []struct {
		name     string
		ingest   bool
		compress bool
	}{
		{"inline", false, false},
		{"ingest-tlat", true, false},
		{"ingest-tlcz", true, true},
	}
	for _, mode := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mode.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dir := t.TempDir()
				c, err := Create(dir, Options{K: 3})
				if err != nil {
					t.Fatal(err)
				}
				// Refreezes run only when the test asks, so which removed
				// names are still blocked stays deterministic.
				opts := IngestOptions{MaxDeltaDocs: 1 << 20, MaxDeltaBytes: 1 << 30, Compress: mode.compress}
				enable := func(c *Corpus) {
					if mode.ingest {
						if err := c.EnableIngest(opts); err != nil {
							t.Fatal(err)
						}
					}
				}
				enable(c)
				defer func() { crash(c) }()

				live := map[string]string{}
				var removed []string         // names removed at some point
				blocked := map[string]bool{} // removed, removal not folded yet
				folded := func() {
					blocked = map[string]bool{}
				}
				next := 0
				newName := func() string {
					next++
					return fmt.Sprintf("d%03d", next)
				}
				pickLive := func() string {
					names := make([]string, 0, len(live))
					for n := range live {
						names = append(names, n)
					}
					sort.Strings(names)
					return names[rng.Intn(len(names))]
				}

				for step := 0; step < 60; step++ {
					var desc string
					switch op := rng.Intn(10); {
					case op < 2 || len(live) == 0: // add
						name, doc := newName(), seqDoc(rng)
						desc = "add " + name
						if err := c.AddXML(name, strings.NewReader(doc)); err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
						live[name] = doc
					case op == 2: // batch add
						batch := make([]BatchDoc, 2+rng.Intn(2))
						for i := range batch {
							name, doc := newName(), seqDoc(rng)
							batch[i] = BatchDoc{Name: name, R: strings.NewReader(doc)}
							live[name] = doc
						}
						desc = fmt.Sprintf("batch of %d", len(batch))
						if err := c.AddXMLBatch(context.Background(), batch); err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
					case op < 5: // remove
						name := pickLive()
						desc = "remove " + name
						if err := c.Remove(name); err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
						delete(live, name)
						removed = append(removed, name)
						blocked[name] = true
					case op == 5 && len(removed) > 0: // re-add a removed name
						name := removed[rng.Intn(len(removed))]
						if _, ok := live[name]; ok {
							continue
						}
						doc := seqDoc(rng)
						desc = "re-add " + name
						err := c.AddXML(name, strings.NewReader(doc))
						if blocked[name] {
							if !errors.Is(err, ErrDocExists) {
								t.Fatalf("%s before its removal folded: %v, want ErrDocExists", desc, err)
							}
						} else if err != nil {
							t.Fatalf("%s: %v", desc, err)
						} else {
							live[name] = doc
						}
					case op < 8: // refreeze
						desc = "refreeze"
						if err := c.Refreeze(context.Background()); err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
						folded()
					default: // crash, maybe lose the newest manifest, reopen both ways
						crash(c)
						desc = "crash"
						if rng.Intn(3) == 0 {
							if mans, _ := scanManifests(dir); len(mans) > 0 {
								desc = "crash losing manifest " + manifestName(mans[0].n)
								if err := os.Remove(filepath.Join(dir, manifestName(mans[0].n))); err != nil {
									t.Fatal(err)
								}
							}
						}
						ro, err := OpenReadOnly(dir)
						if err != nil {
							t.Fatalf("%s: OpenReadOnly: %v", desc, err)
						}
						assertMatchesRebuild(t, ro, live, desc+", read-only reopen")
						if c, err = Open(dir); err != nil {
							t.Fatalf("%s: Open: %v", desc, err)
						}
						enable(c)
					}
					if !mode.ingest && desc != "crash" && !strings.HasPrefix(desc, "crash ") {
						folded() // every inline write folds everything pending
					}
					assertMatchesRebuild(t, c, live, fmt.Sprintf("step %d (%s)", step, desc))
				}
			})
		}
	}
}

// TestLegacyLayoutOpens: a pre-epoch directory — summary.tlat plus
// docs/, no manifests — opens with Open and OpenReadOnly as epoch 0,
// and its first write re-homes the snapshot under manifest 0 so a
// crash before the fold loses nothing.
func TestLegacyLayoutOpens(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	live := map[string]string{}
	dict := labeltree.NewDict()
	var trees []*labeltree.Tree
	if err := os.MkdirAll(filepath.Join(dir, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		name, doc := fmt.Sprintf("old%d", i), seqDoc(rng)
		live[name] = doc
		tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
		f, err := os.Create(filepath.Join(dir, "docs", name+".tltr"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := labeltree.WriteTree(f, tr); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	sum, err := core.BuildForestContext(context.Background(), trees, core.BuildOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "summary.tlat"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sum.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "corpus.meta"), []byte("k=3\nvaluebuckets=0\nattributes=false\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRebuild(t, ro, live, "legacy read-only open")
	if err := ro.AddXML("new", strings.NewReader(seqDoc(rng))); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write to a read-only replica: %v, want ErrReadOnly", err)
	}
	rw, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRebuild(t, rw, live, "legacy open")

	// The first change lands under ingest (no inline fold) and then the
	// process dies: the re-homed epoch 0 must still count the old docs.
	if err := rw.EnableIngest(IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	doc := seqDoc(rng)
	if err := rw.AddXML("new", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	live["new"] = doc
	if err := rw.Remove("old1"); err != nil {
		t.Fatal(err)
	}
	delete(live, "old1")
	crash(rw)
	if _, err := os.Stat(filepath.Join(dir, "summary.tlat")); !os.IsNotExist(err) {
		t.Fatalf("summary.tlat survived a change to docs/: %v", err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRebuild(t, again, live, "reopen after the first writes")
	if err := again.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertMatchesRebuild(t, again, live, "after folding")
	if _, err := os.Stat(filepath.Join(dir, "summary.tlat")); err != nil {
		t.Fatalf("summary.tlat not published after a complete fold: %v", err)
	}
}

// TestNothingExtraInMemory: a corpus that never enables ingest starts
// no goroutine, a replica that never writes holds no map-backed lattice,
// and an epoch with an empty delta serves its base store directly.
func TestNothingExtraInMemory(t *testing.T) {
	before := runtime.NumGoroutine()
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
	if err := c.Remove("doc-001"); err != nil {
		t.Fatal(err)
	}
	if got := c.Summary().StoreKind(); got != "frozen" {
		t.Fatalf("store kind after inline folds = %q, want frozen", got)
	}
	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range core.RegisteredMethods() {
		if _, err := ro.EstimateQuery("laptop(brand)", m); err != nil {
			t.Fatal(err)
		}
	}
	if ro.foldLat != nil || ro.Summary().Lattice() != nil {
		t.Fatal("a replica that never wrote holds a map-backed lattice")
	}
	// Mining goroutines finish before each write returns; give the
	// runtime a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew from %d to %d without EnableIngest", before, after)
	}

	if err := ro.EnableIngest(IngestOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	defer crash(ro)
	if err := ro.AddXML("extra", strings.NewReader(docC)); err != nil {
		t.Fatal(err)
	}
	if got := ro.Summary().StoreKind(); got != "delta" {
		t.Fatalf("store kind with an unfolded add = %q, want delta", got)
	}
	if err := ro.Refreeze(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ro.Summary().StoreKind(); got != "frozen" {
		t.Fatalf("store kind after the refreeze = %q, want frozen", got)
	}
	crash(ro)
	re, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Summary().StoreKind(); got != "compressed" {
		t.Fatalf("reopened store kind = %q, want compressed", got)
	}
}

// TestConcurrentWrites races writers — adds and removals of their own
// documents, folding inline or landing for the refreezer — against
// readers, then checks the corpus against a rebuild. Under -race it
// checks the write path's locking.
func TestConcurrentWrites(t *testing.T) {
	for _, ingest := range []bool{false, true} {
		t.Run(fmt.Sprintf("ingest=%v", ingest), func(t *testing.T) {
			c, err := Create(t.TempDir(), Options{K: 3})
			if err != nil {
				t.Fatal(err)
			}
			if ingest {
				if err := c.EnableIngest(IngestOptions{MaxDeltaDocs: 3}); err != nil {
					t.Fatal(err)
				}
				defer c.DisableIngest()
			}
			var mu sync.Mutex
			live := map[string]string{}
			stop := make(chan struct{})
			var readers, writers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_, err := c.Summary().EstimateQuery("a(b)", core.MethodRecursive)
						if err != nil && !errors.Is(err, core.ErrUnknownLabel) {
							t.Error(err)
							return
						}
					}
				}()
			}
			for w := 0; w < 4; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 4; i++ {
						name, doc := fmt.Sprintf("w%d-%d", w, i), seqDoc(rng)
						if err := c.AddXML(name, strings.NewReader(doc)); err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						live[name] = doc
						mu.Unlock()
					}
					for i := 0; i < 4; i += 2 {
						name := fmt.Sprintf("w%d-%d", w, i)
						if err := c.Remove(name); err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						delete(live, name)
						mu.Unlock()
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			if !t.Failed() {
				assertMatchesRebuild(t, c, live, "after concurrent writes")
			}
		})
	}
}

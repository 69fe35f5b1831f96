package experiments

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/estimate"
	"treelattice/internal/lattice"
	"treelattice/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current estimators")

const goldenPath = "testdata/golden.txt"

// goldenCfg is the fixed setup the golden file pins: the four datagen
// profiles at a small scale, K = 4, and positive and negative workloads
// at sizes 3–8 (in-lattice, one and several levels above it).
func goldenCfg() Config {
	return Config{
		Scale:        1500,
		Seed:         42,
		K:            4,
		Sizes:        []int{3, 4, 5, 6, 7, 8},
		PerSize:      10,
		SketchBudget: 8 << 10,
	}
}

// TestGolden pins every estimator's output bit for bit: each method-table
// method's strict estimate on the map store, the exact count, the
// decomposition-choice interval, the δ-pruned key sets, and Figure 11.
// Differential tests compare engines with each other and would pass a
// rewrite that shifts every answer alike; this one compares with a record.
// Floats are stored as their IEEE-754 bit patterns. Go may fuse
// multiply-adds off amd64, so other architectures get a few ulps.
//
// go test ./internal/experiments -run TestGolden -update rewrites the file;
// a change that does so must say why.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden estimates in -short mode")
	}
	got := goldenLines(t)
	if *update {
		var buf bytes.Buffer
		buf.WriteString("# Estimator golden file: one record per line, floats as IEEE-754 bits.\n")
		buf.WriteString("# Rewrite with: go test ./internal/experiments -run TestGolden -update\n")
		for _, l := range got {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("golden file has %d records, the estimators produced %d", len(want), len(got))
	}
	exact := runtime.GOARCH == "amd64"
	bad := 0
	for i := range want {
		if want[i] == got[i] || (!exact && closeRecords(want[i], got[i])) {
			continue
		}
		bad++
		if bad <= 10 {
			t.Errorf("record %d differs:\n want %s\n  got %s", i+1, want[i], got[i])
		}
	}
	if bad > 10 {
		t.Errorf("... %d records differ in all", bad)
	}
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := sc.Text(); l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenLines computes the records in file order.
func goldenLines(t *testing.T) []string {
	t.Helper()
	ctx := context.Background()
	var out []string

	f11, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, fmt.Sprintf("figure11 true=%d treelattice=%s sketch=%s",
		f11.TrueCount, hexFloat(f11.TreeLattice), hexFloat(f11.Sketch)))

	s := NewSuite(goldenCfg())
	for _, p := range s.Cfg.Profiles {
		e, err := s.Env(p)
		if err != nil {
			t.Fatal(err)
		}
		lat := e.Summary.Lattice()
		if lat == nil {
			t.Fatalf("%s: summary is not map-backed", p)
		}
		var pruned *lattice.Summary
		for _, delta := range []float64{0, 0.1} {
			pruned = estimate.PruneDerivable(lat, delta)
			out = append(out, fmt.Sprintf("prune %s delta=%g entries=%d hash=%016x",
				p, delta, pruned.Len(), entrySetHash(e, pruned.Entries(0))))
		}
		for _, kind := range []string{"pos", "neg"} {
			qs := e.Positive
			if kind == "neg" {
				qs = e.Negative
			}
			for _, size := range s.Cfg.Sizes {
				for i, q := range qs[size] {
					out = append(out, queryRecord(ctx, t, e, pruned, q, fmt.Sprintf("query %s %s %d %d", p, kind, size, i)))
				}
			}
		}
	}
	return out
}

// queryRecord renders one query's record: its exact count, every method's
// strict estimate, its decomposition-choice interval from the voting pass
// Summary.Explain runs (on the full lattice), and both recursive
// estimates over the δ = 0.1 pruned summary, which reconstruct pruned
// in-range patterns.
func queryRecord(ctx context.Context, t *testing.T, e *Env, pruned *lattice.Summary, q workload.Query, head string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(head)
	fmt.Fprintf(&b, " exact=%d", q.TrueCount)
	for _, m := range core.RegisteredMethods() {
		de, err := e.Summary.EstimateStrict(ctx, q.Pattern, m)
		if err != nil {
			t.Fatalf("%s: %s: %v", head, m, err)
		}
		fmt.Fprintf(&b, " %s=%s", m, hexFloat(de.Estimate))
	}
	_, _, iv, err := e.Summary.Explain(ctx, q.Pattern)
	if err != nil {
		t.Fatalf("%s: interval: %v", head, err)
	}
	fmt.Fprintf(&b, " interval=%s,%s", hexFloat(iv.Lo), hexFloat(iv.Hi))
	fmt.Fprintf(&b, " pruned-recursive=%s pruned-voting=%s",
		hexFloat(estimate.NewRecursive(pruned, false).Estimate(q.Pattern)),
		hexFloat(estimate.NewRecursive(pruned, true).Estimate(q.Pattern)))
	return b.String()
}

// entrySetHash is an FNV-1a hash of a pruned summary's entries, each as
// its twig text and count, in text order: it pins which patterns pruning
// kept without depending on the process-internal key encoding.
func entrySetHash(e *Env, entries []lattice.Entry) uint64 {
	lines := make([]string, len(entries))
	for i, en := range entries {
		lines[i] = en.Pattern.String(e.Dict) + " " + strconv.FormatInt(en.Count, 10)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// hexFloat renders v as 0x followed by its 16 hex-digit bit pattern.
func hexFloat(v float64) string { return fmt.Sprintf("0x%016x", math.Float64bits(v)) }

// closeRecords compares two records field by field, allowing float fields
// to differ by a few ulps: the tolerance for architectures whose compiler
// may fuse multiply-adds.
func closeRecords(want, got string) bool {
	wf, gf := strings.Fields(want), strings.Fields(got)
	if len(wf) != len(gf) {
		return false
	}
	for i := range wf {
		if wf[i] == gf[i] {
			continue
		}
		wk, wv, _ := strings.Cut(wf[i], "=")
		gk, gv, _ := strings.Cut(gf[i], "=")
		if wk != gk {
			return false
		}
		wvs, gvs := strings.Split(wv, ","), strings.Split(gv, ",")
		if len(wvs) != len(gvs) {
			return false
		}
		for j := range wvs {
			if !closeFloatBits(wvs[j], gvs[j]) {
				return false
			}
		}
	}
	return true
}

// goldenUlps is how far apart, in units of the last place, two float
// fields may be off amd64.
const goldenUlps = 8

func closeFloatBits(want, got string) bool {
	if want == got {
		return true
	}
	if !strings.HasPrefix(want, "0x") || !strings.HasPrefix(got, "0x") {
		return false
	}
	w, err1 := strconv.ParseUint(want[2:], 16, 64)
	g, err2 := strconv.ParseUint(got[2:], 16, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	wv, gv := math.Float64frombits(w), math.Float64frombits(g)
	if math.IsNaN(wv) || math.IsNaN(gv) || math.IsInf(wv, 0) || math.IsInf(gv, 0) || (wv < 0) != (gv < 0) {
		return false
	}
	d := int64(w) - int64(g)
	if d < 0 {
		d = -d
	}
	return d <= goldenUlps
}

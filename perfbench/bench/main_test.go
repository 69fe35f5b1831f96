package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// inputFingerprint flattens everything a run would send.
func inputFingerprint(in *inputs) []byte {
	var b bytes.Buffer
	for _, d := range append(append([]*doc(nil), in.docs...), in.writes...) {
		b.WriteString(d.name)
		b.Write(d.xml)
	}
	for _, e := range in.est {
		b.WriteString(e.req.URL.String())
	}
	for _, e := range in.exec {
		b.WriteString(e.req.URL.String())
	}
	for _, s := range [][]int32{in.estSeq, in.execSeq} {
		for _, i := range s {
			b.WriteByte(byte(i))
			b.WriteByte(byte(i >> 8))
		}
	}
	return b.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range []string{"estimate", "query", "ingest"} {
		a := inputFingerprint(genInputs(w, 7, 1, 0.05))
		b := inputFingerprint(genInputs(w, 7, 1, 0.05))
		c := inputFingerprint(genInputs(w, 8, 1, 0.05))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on a second call", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", w)
		}
	}
}

// handTree builds
//
//	a
//	├─ b
//	├─ b
//	├─ c
//	│  ├─ b
//	│  └─ d
//	└─ b
//	   └─ d
func handTree(v *vocab) *doc {
	b := &docGen{v: v}
	a := b.add(-1, "a")
	b.leaf(a, "b")
	b.leaf(a, "b")
	c := b.add(a, "c")
	b.leaf(c, "b")
	b.leaf(c, "d")
	b.leaf(b.add(a, "b"), "d")
	return b.finish("hand", 0)
}

// parseTwig reads the benchmark's own twig notation: "a(b,//c(d))".
func parseTwig(t *testing.T, v *vocab, s string) twig {
	t.Helper()
	var q twig
	pos := 0
	var node func(parent int32, desc bool)
	node = func(parent int32, desc bool) {
		start := pos
		for pos < len(s) && !strings.ContainsRune("(),/", rune(s[pos])) {
			pos++
		}
		id := int32(len(q))
		q = append(q, qnode{label: v.id(s[start:pos]), parent: parent, desc: desc})
		if pos < len(s) && s[pos] == '(' {
			pos++
			for {
				d := strings.HasPrefix(s[pos:], "//")
				if d {
					pos += 2
				}
				node(id, d)
				if s[pos] == ')' {
					pos++
					return
				}
				pos++ // ','
			}
		}
	}
	node(-1, false)
	if pos != len(s) {
		t.Fatalf("parseTwig(%q): trailing input", s)
	}
	return q
}

func TestReferenceCounterHandCounted(t *testing.T) {
	v := newVocab()
	docs := []*doc{handTree(v)}
	for _, tc := range []struct {
		twig string
		want float64
	}{
		{"a(b)", 3},
		{"a(b,b)", 6},   // duplicate siblings: ordered injective pairs of a's three b children
		{"a(b,b,b)", 6}, // 3!
		{"a(b(d),b)", 2},
		{"a(b,c(b,d))", 3},
		{"b(d)", 1},
		{"c(b,d)", 1},
		{"a(d)", 0},
		{"a(//d)", 2},
		{"a(//b,c)", 4}, // the c/b grandchild counts through the // edge
		{"a(c,//d)", 2},
	} {
		q := parseTwig(t, v, tc.twig)
		if got := refCount(docs, q); got != tc.want {
			t.Errorf("refCount(%s) = %v, want %v", tc.twig, got, tc.want)
		}
		if got := refMatches(docs, q); got != (tc.want > 0) {
			t.Errorf("refMatches(%s) = %v", tc.twig, got)
		}
	}
	// Round trip through the program's syntax.
	if got := parseTwig(t, v, "a(b,//c(d))").text(v); got != "a(b,//c(d))" {
		t.Errorf("text() = %q", got)
	}
}

func TestReferenceCounterRejectsRepeatedLabelsUnderDescendantEdges(t *testing.T) {
	v := newVocab()
	docs := []*doc{handTree(v)}
	defer func() {
		if recover() == nil {
			t.Error("refCount accepted a // twig with repeated labels")
		}
	}()
	refCount(docs, parseTwig(t, v, "a(b,//b)"))
}

func TestCandidateBoundCoversEveryOrder(t *testing.T) {
	v := newVocab()
	docs := []*doc{handTree(v)}
	// a(b,c): binding a, then b (3 candidates), then c (1 per a) costs
	// 1+3+3 = 7; a, c, b costs 1+1+3 = 5. The bound sums every
	// parent-closed set, {a} {a,b} {a,c} {a,b,c}: 1+3+1+3 = 8 >= 7.
	if got := candidateBound(docs, parseTwig(t, v, "a(b,c)")); got != 8 {
		t.Errorf("candidateBound(a(b,c)) = %v, want 8", got)
	}
	// a(//b,c(d)): {a} 1, {a,b} 4, {a,c} 1, {a,b,c} 4, {a,c,d} 1,
	// {a,b,c,d} 4.
	if got := candidateBound(docs, parseTwig(t, v, "a(//b,c(d))")); got != 15 {
		t.Errorf("candidateBound(a(//b,c(d))) = %v, want 15", got)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(r *result) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmokeRuns runs every workload at a tiny size, untraced and traced,
// and checks the answers and the metric names against BENCHMARK.json.
func TestSmokeRuns(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	for _, w := range []string{"estimate", "query", "ingest"} {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 3, seconds: 1, trace: trace, scale: 0.05, dir: filepath.Join(t.TempDir(), "runs")}
			res, report, err := benchmark(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d problems=%v", w, trace, res.Correct, res.Failed, res.Attempted, report["problems"])
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := metricNames(res); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s trace=%v metrics\n got %v\nwant %v", w, trace, got, want)
			}
			if !trace && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %v", w, res.Metrics["setup_s"].Value)
			}
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--workload", "estimate", "--trace", "2"},
		{"--workload", "estimate", "--seconds", "0"},
		{"--workload", "estimate", "--scale", "2"}, // sizes are fixed
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// TestHostSpeed checks that a pause runs one reference chunk per
// goroutine, that a factor covers only the chunks since the last one, and
// that scaling takes times and rates to the reference speed in opposite
// directions.
func TestHostSpeed(t *testing.T) {
	hs := newHostSpeed()
	hs.pause(2)
	if n := len(hs.chunks); n != 2 {
		t.Errorf("pause(2) ran %d chunks", n)
	}
	if f := hs.factor(); f <= 0 || len(hs.chunks) != 0 {
		t.Errorf("factor %v, %d chunks left", f, len(hs.chunks))
	}
	if f := hs.factor(); f != 1 {
		t.Errorf("factor with no chunks = %v", f)
	}
	for name, want := range map[string]float64{"setup_s": 0.5, "p99_ms": 0.25, "read_ops_per_s": 4, "heap_mb": 0, "est_err": 0} {
		if got := hostScaling(name, 2, 4); got != want {
			t.Errorf("hostScaling(%s) = %v, want %v", name, got, want)
		}
	}
}

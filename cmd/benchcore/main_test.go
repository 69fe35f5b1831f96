package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkKey/size8-8   7423137   162.3 ns/op   24 B/op   1 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if res.Name != "BenchmarkKey/size8" || res.Iterations != 7423137 || res.NsPerOp != 162.3 {
		t.Fatalf("parsed %+v", res)
	}
	if res.BytesPerOp == nil || *res.BytesPerOp != 24 || res.AllocsPerOp == nil || *res.AllocsPerOp != 1 {
		t.Fatalf("memory fields: %+v", res)
	}

	res, ok = parseBenchLine("BenchmarkTable3LatticeConstruction/xmark-8  96  12173255 ns/op  3524 summaryKB  4481237 B/op  40958 allocs/op")
	if !ok {
		t.Fatal("line with custom metric not parsed")
	}
	if res.Metrics["summaryKB"] != 3524 {
		t.Fatalf("custom metric lost: %+v", res.Metrics)
	}

	for _, line := range []string{
		"PASS",
		"ok  \ttreelattice\t4.2s",
		"goos: linux",
		"BenchmarkBroken-8 notanumber 1 ns/op",
		"BenchmarkNoTime-8 100 24 B/op", // no ns/op measurement
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("parsed non-benchmark line %q", line)
		}
	}
}

func TestUnmatchedAlternatives(t *testing.T) {
	results := []Result{
		{Name: "BenchmarkKey/size4"},
		{Name: "BenchmarkStoreLookup/nasa/map"},
		{Name: "BenchmarkFigure9ResponseTime/map/cold/recursive/size4"},
	}
	for _, tc := range []struct {
		re   string
		want []string
	}{
		{"BenchmarkKey$|BenchmarkStoreLookup$|BenchmarkFigure9ResponseTime$", nil},
		// A renamed benchmark leaves its old alternative matching nothing.
		{"BenchmarkKey$|BenchmarkFrozenLookup$|BenchmarkStoreLookup$", []string{"BenchmarkFrozenLookup$"}},
		// An anchored alternative does not match a longer name.
		{"BenchmarkFigure9ResponseTime$|BenchmarkFigure9ResponseTimeFrozen$", []string{"BenchmarkFigure9ResponseTimeFrozen$"}},
		// Only the first level splits; bracketed '|' and '/' do not.
		{"Benchmark(Key|Gone)$|BenchmarkNone/nasa", []string{"BenchmarkNone"}},
		{`BenchmarkKey[/|]?$|BenchmarkAbsent$/map`, []string{"BenchmarkAbsent$"}},
	} {
		got, err := unmatched(tc.re, results)
		if err != nil {
			t.Fatalf("%q: %v", tc.re, err)
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Errorf("unmatched(%q) = %q, want %q", tc.re, got, tc.want)
		}
	}
	if _, err := unmatched("Benchmark(", results); err == nil {
		t.Error("invalid regexp accepted")
	}
}

// TestMedians folds repeated runs into one row per benchmark, in first-run
// order: the median run's ns/op, B/op and allocs/op, the range of ns/op,
// and the run count; an even count takes the lower middle run.
func TestMedians(t *testing.T) {
	var runs []Result
	for _, line := range []string{
		"BenchmarkKey/size8-8   100   170 ns/op   24 B/op   1 allocs/op",
		"BenchmarkIndex-8       10   9000 ns/op  800 B/op   7 allocs/op",
		"BenchmarkKey/size8-8   100   150 ns/op   24 B/op   1 allocs/op",
		"BenchmarkIndex-8       12   7000 ns/op  800 B/op   7 allocs/op",
		"BenchmarkKey/size8-8   100   190 ns/op   24 B/op   1 allocs/op",
		"BenchmarkIndex-8       11   8000 ns/op  816 B/op   8 allocs/op",
		"BenchmarkKey/size8-8   100   160 ns/op   24 B/op   1 allocs/op",
		"BenchmarkKey/size8-8   100   180 ns/op   24 B/op   1 allocs/op",
		"BenchmarkIndex-8        9  10000 ns/op  800 B/op   7 allocs/op",
	} {
		r, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("line not parsed: %q", line)
		}
		runs = append(runs, r)
	}
	got := medians(runs)
	if len(got) != 2 || got[0].Name != "BenchmarkKey/size8" || got[1].Name != "BenchmarkIndex" {
		t.Fatalf("rows %+v, want BenchmarkKey/size8 then BenchmarkIndex", got)
	}
	key, index := got[0], got[1]
	if key.NsPerOp != 170 || key.NsPerOpMin != 150 || key.NsPerOpMax != 190 || key.Runs != 5 {
		t.Errorf("odd count: %+v, want median 170 of 150..190 over 5 runs", key)
	}
	// Runs sorted by ns/op: 7000, 8000, 9000, 10000; the lower middle is 8000.
	if index.NsPerOp != 8000 || index.NsPerOpMin != 7000 || index.NsPerOpMax != 10000 || index.Runs != 4 ||
		index.Iterations != 11 || *index.BytesPerOp != 816 || *index.AllocsPerOp != 8 {
		t.Errorf("even count: %+v, want the 8000 ns run of 7000..10000 over 4 runs", index)
	}
	if one := medians(runs[:1]); len(one) != 1 || one[0].Runs != 1 || one[0].NsPerOpMin != 170 || one[0].NsPerOpMax != 170 {
		t.Errorf("single run: %+v", one)
	}
}

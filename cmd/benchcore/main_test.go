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

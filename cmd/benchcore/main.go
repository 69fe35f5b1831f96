// Command benchcore runs the core micro- and macro-benchmarks of the
// build/estimate hot path — canonical keying (BenchmarkKey and its
// pre-optimization reference), summary construction (Table 3), and
// estimation response time (Figure 9) — and writes the parsed results to
// a JSON report (BENCH_core.json). It starts the BENCH trajectory for
// build/estimate costs alongside the serving-path BENCH_serve.json.
//
// The tool shells out to `go test -bench` and parses the standard
// benchmark output, so the numbers are exactly what a developer sees
// running the benchmarks by hand.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"b_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_core.json schema.
type Report struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	NumCPU      int      `json:"num_cpu"`
	BenchRegexp string   `json:"bench_regexp"`
	Benchtime   string   `json:"benchtime"`
	Scale       string   `json:"scale,omitempty"`
	Results     []Result `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output report path")
	benchRe := flag.String("bench",
		"BenchmarkKey$|BenchmarkKeyReference$|BenchmarkAppendKey$|BenchmarkKeyBuilderChildKey$|BenchmarkTable3LatticeConstruction$|BenchmarkFigure9ResponseTime$|BenchmarkFrozenLookup$|BenchmarkFigure9ResponseTimeFrozen$|BenchmarkCompressedLookup$|BenchmarkFigure9ResponseTimeCompressed$|BenchmarkTwigExecIndexed$|BenchmarkTwigJoinExecution$|BenchmarkPlanVsNaive$",
		"go test -bench regexp")
	benchtime := flag.String("benchtime", "", "go test -benchtime (empty = go default)")
	scale := flag.String("scale", "", "TWIG_BENCH_SCALE for the macro benchmarks (empty = package default)")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem"}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	args = append(args, "./...")
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if *scale != "" {
		cmd.Env = append(cmd.Env, "TWIG_BENCH_SCALE="+*scale)
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: go test: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(stdout.Bytes())

	results := parseBenchOutput(&stdout)
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchcore: no benchmark results parsed")
		os.Exit(1)
	}
	report := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		BenchRegexp: *benchRe,
		Benchtime:   *benchtime,
		Scale:       *scale,
		Results:     results,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchcore: wrote %d results to %s\n", len(results), *out)
}

// benchLine matches "BenchmarkName-8   1234   56.7 ns/op ..." prefixes;
// the measurement fields after the iteration count are parsed as
// whitespace-separated (value, unit) pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func parseBenchOutput(r *bytes.Buffer) []Result {
	var out []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if res, ok := parseBenchLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out
}

// parseBenchLine parses one line of `go test -bench -benchmem` output.
func parseBenchLine(line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: m[1], Iterations: iters}
	fields := strings.Fields(m[3])
	seen := false
	for i := 0; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = val
			seen = true
		case "B/op":
			b := int64(val)
			res.BytesPerOp = &b
		case "allocs/op":
			a := int64(val)
			res.AllocsPerOp = &a
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = val
		}
	}
	return res, seen
}

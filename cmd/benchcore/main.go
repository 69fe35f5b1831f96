// Command benchcore runs the core micro- and macro-benchmarks of the
// build/estimate hot path — canonical keying (BenchmarkKey and its
// pre-optimization reference), summary construction (Table 3), store
// probes, estimation response time (Figure 9), twig execution, per
// document and served over a 48-document corpus, and a served estimate
// through the HTTP handler with its decode, parse, estimate and encode
// steps alone — and writes the parsed results to a JSON report
// (BENCH_core.json). It is the layer-by-layer counterpart of the serving
// benchmark in perfbench/, whose runs `make bench` records in
// BENCH_serve.jsonl.
//
// The tool shells out to `go test -bench` and parses the standard
// benchmark output, so the numbers are exactly what a developer sees
// running the benchmarks by hand. With -count n every benchmark runs n
// times, and its row reports the median run's ns/op, B/op and allocs/op
// with the fastest and slowest run's ns/op beside them, so a row shows
// how far its own runs spread. It fails when an alternative of the
// -bench regexp matched no benchmark, so a renamed benchmark cannot
// silently drop its rows from the report.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line, or, in the report, the median of
// one benchmark's runs: its fields are the median run's, with Runs and
// the ns/op range of all runs added.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	NsPerOpMin  float64            `json:"ns_per_op_min,omitempty"`
	NsPerOpMax  float64            `json:"ns_per_op_max,omitempty"`
	Runs        int                `json:"runs,omitempty"`
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
	Count       int      `json:"count"`
	Scale       string   `json:"scale,omitempty"`
	Results     []Result `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output report path")
	benchRe := flag.String("bench",
		"BenchmarkKey$|BenchmarkKeyReference$|BenchmarkAppendKey$|BenchmarkKeyBuilderChildKey$|BenchmarkTable3LatticeConstruction$|BenchmarkFigure9ResponseTime$|BenchmarkStoreLookup$|BenchmarkTwigExecIndexed$|BenchmarkTwigJoinExecution$|BenchmarkExecuteQuery$|BenchmarkPlanVsNaive$|BenchmarkServeEstimate$",
		"go test -bench regexp")
	benchtime := flag.String("benchtime", "", "go test -benchtime (empty = go default)")
	count := flag.Int("count", 1, "runs of each benchmark (go test -count); a row reports their median")
	scale := flag.String("scale", "", "TWIG_BENCH_SCALE for the macro benchmarks (empty = package default)")
	flag.Parse()

	if *count < 1 {
		fmt.Fprintf(os.Stderr, "benchcore: -count %d: need at least one run\n", *count)
		os.Exit(2)
	}
	args := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem", "-count", strconv.Itoa(*count)}
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

	results := medians(parseBenchOutput(&stdout))
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchcore: no benchmark results parsed")
		os.Exit(1)
	}
	missing, err := unmatched(*benchRe, results)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcore: %v\n", err)
		os.Exit(1)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchcore: -bench alternatives matched no benchmark: %s\n", strings.Join(missing, ", "))
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
		Count:       *count,
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

// medians folds the runs of each benchmark into one row, in the order
// the benchmarks first ran: the median run by ns/op (the lower middle
// one of an even count), with every run's ns/op range and the run count.
func medians(runs []Result) []Result {
	var order []string
	byName := make(map[string][]Result)
	for _, r := range runs {
		if _, ok := byName[r.Name]; !ok {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		slices.SortStableFunc(rs, func(a, b Result) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
		row := rs[(len(rs)-1)/2]
		row.NsPerOpMin, row.NsPerOpMax, row.Runs = rs[0].NsPerOp, rs[len(rs)-1].NsPerOp, len(rs)
		out = append(out, row)
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

// unmatched returns the top-level alternatives of the -bench regexp
// that match no result's top-level benchmark name. Like go test, it
// splits the regexp at unbracketed slashes into per-level expressions;
// the first level's unbracketed '|' separates the alternatives.
func unmatched(benchRe string, results []Result) ([]string, error) {
	var missing []string
	for _, alt := range alternatives(benchRe) {
		re, err := regexp.Compile(alt)
		if err != nil {
			return nil, fmt.Errorf("-bench alternative %q: %w", alt, err)
		}
		found := false
		for _, r := range results {
			top, _, _ := strings.Cut(r.Name, "/")
			if re.MatchString(top) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, alt)
		}
	}
	return missing, nil
}

// alternatives splits the first level of a -bench regexp at its
// top-level '|' characters, skipping escaped characters and anything
// inside parentheses or a character class.
func alternatives(benchRe string) []string {
	var out []string
	depth, inClass, start := 0, false, 0
	for i := 0; i < len(benchRe); i++ {
		switch c := benchRe[i]; {
		case c == '\\':
			i++
		case inClass:
			inClass = c != ']'
		case c == '[':
			inClass = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case depth == 0 && c == '/':
			return append(out, benchRe[start:i])
		case depth == 0 && c == '|':
			out = append(out, benchRe[start:i])
			start = i + 1
		}
	}
	return append(out, benchRe[start:])
}

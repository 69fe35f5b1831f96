// Command bench is the TreeLattice benchmark: it generates documents and
// queries from a seed, sets up a serving replica through the program's
// public calls, and drives it in-process through ServeHTTP with a fixed,
// seeded sequence of requests. See ../README.md for the workloads and the
// metrics; perfbench/run.py builds and runs it.
//
//	bench --workload estimate|query|ingest --seed N --seconds S --trace 0|1
//
// The last line of standard output is the JSON result; the line before it
// is the workload-property report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64 // input size factor; 1 except in the tests
	dir      string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "estimate, query or ingest")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sets the fixed op count")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced single-client run and reports per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "runs"), "directory for corpus directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	switch {
	case cfg.workload != "estimate" && cfg.workload != "query" && cfg.workload != "ingest":
		fmt.Fprintf(stderr, "bench: unknown --workload %q (estimate, query, ingest)\n", cfg.workload)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	case cfg.seconds < 1:
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	}
	res, report, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	out := json.NewEncoder(stdout)
	if err := out.Encode(map[string]any{"report": report}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// benchmark generates the inputs and runs the untraced or traced run in a
// fresh directory it removes afterwards.
func benchmark(cfg config) (*result, map[string]any, error) {
	genStart := time.Now()
	in := genInputs(cfg.workload, cfg.seed, cfg.seconds, cfg.scale)
	report := inputReport(cfg, in)
	report["generate_s"] = time.Since(genStart).Seconds()

	root, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)
	report["corpus_dir"] = root
	report["corpus_fs"] = fsType(root)

	var res *result
	if cfg.trace {
		res, err = tracedRun(cfg, in, root, report)
	} else {
		res, err = untracedRun(cfg, in, root, report)
	}
	return res, report, err
}

// untracedRun measures the end-to-end metrics. Every timing metric is
// scaled to the reference host speed (see hostSpeed); the report keeps
// the unscaled figures and the factors.
func untracedRun(cfg config, in *inputs, root string, report map[string]any) (*result, error) {
	s := newSamples(in, cfg)
	hs := newHostSpeed()
	in.dropTrees()
	heap0 := liveHeap()
	rep, timings, err := setUpMany(root, in.docs, cfg.workload == "ingest", false, hs)
	if err != nil {
		return nil, err
	}
	setupFactor := hs.factor()
	var setups []float64
	for _, t := range timings {
		setups = append(setups, t.total.Seconds())
	}
	report["setup_samples_s"] = setups
	report["setup_host_factor"] = setupFactor
	runtime.GC()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	var wall time.Duration
	var timedFactor, estErr float64
	var problems []string
	switch cfg.workload {
	case "estimate":
		wall = timedEstimate(rep, in, s, hs)
		timedFactor = hs.factor()
		m["heap_mb"] = heapMetric(heap0)
		first, bad := inconsistentEstimates(in, s)
		if bad > 0 {
			problems = append(problems, fmt.Sprintf("%d estimates differ from the first answer for their query", bad))
		}
		estErr, err = scoreEstimates(rep, in, first)
	case "query":
		var bad []string
		wall, bad = timedQuery(rep, in, s, hs)
		timedFactor = hs.factor()
		m["heap_mb"] = heapMetric(heap0)
		problems = append(problems, bad...)
		report["budget_exhausted_share"] = share(s.status, statusDegraded)
		estErr, err = scoreEstimates(rep, in, nil)
	case "ingest":
		wall = timedIngest(rep, in, s, hs)
		timedFactor = hs.factor()
		// A refreeze still in flight holds a second snapshot; measure the
		// heap once the refreezer is idle.
		if err = waitRefreezeIdle(rep.h); err != nil {
			return nil, err
		}
		m["heap_mb"] = heapMetric(heap0)
		// The reader is paced by the writer's acknowledgements, so reads
		// over wall time would track write throughput; the reader's busy
		// time is what the read path costs.
		addReadMetrics(m, s.readLat, s.reads, time.Duration(s.readLat.sum()))
		report["reads"] = s.reads
		// The reader cycles through the pool; only reads past its first
		// pass repeat a query, and none within an epoch's reads.
		report["read_repeat_share"] = float64(max(0, s.reads-len(in.estSeq))) / float64(max(1, s.reads))
		res.Attempted += int64(s.reads)
		res.Failed += s.readFailed
		if err = checkDurability(rep, in, report); err == nil {
			estErr, err = scoreEstimates(rep, in, nil)
		}
	}
	if err != nil {
		problems = append(problems, err.Error())
	}
	n := len(s.lat)
	m["ops_per_s"] = metric{float64(n) / wall.Seconds(), "1/s"}
	p50, _ := s.lat.quantile(0.50)
	p99, above := s.lat.quantile(0.99)
	m["p50_ms"] = metric{p50, "ms"}
	m["p99_ms"] = metric{p99, "ms"}
	m["est_err"] = metric{estErr, "1"}
	if cfg.workload != "ingest" {
		// Every op of a read-only workload is a read. The copies exist
		// only because every run reports every end-to-end metric.
		addReadMetrics(m, s.lat, n, wall)
	}
	report["ops"] = n
	report["p99_samples_above"] = above
	report["timed_host_factor"] = timedFactor
	unscaled := make(map[string]float64)
	for name, v := range m {
		if f := hostScaling(name, setupFactor, timedFactor); f != 0 {
			unscaled[name] = v.Value
			m[name] = metric{v.Value * f, v.Unit}
		}
	}
	report["unscaled"] = unscaled
	res.Attempted += int64(n)
	res.Failed += countFailed(s.status)
	if err := rep.close(); err != nil {
		problems = append(problems, "closing replica: "+err.Error())
	}
	if len(problems) > 0 {
		res.Correct = false
		report["problems"] = problems
	}
	return res, nil
}

func heapMetric(heap0 uint64) metric {
	return metric{(float64(liveHeap()) - float64(heap0)) / 1e6, "MB"}
}

// addReadMetrics reports reads over the time they took: the timed phase's
// wall time, or on ingest the reader's busy time.
func addReadMetrics(m map[string]metric, lat latencies, reads int, took time.Duration) {
	p50, _ := lat.quantile(0.50)
	p99, _ := lat.quantile(0.99)
	m["read_ops_per_s"] = metric{float64(reads) / took.Seconds(), "1/s"}
	m["read_p50_ms"] = metric{p50, "ms"}
	m["read_p99_ms"] = metric{p99, "ms"}
}

func share(status []int16, want int16) float64 {
	n := 0
	for _, st := range status {
		if st == want {
			n++
		}
	}
	return float64(n) / float64(len(status))
}

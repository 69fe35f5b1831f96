package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/datagen"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/loadgen"
	"treelattice/internal/obs"
	"treelattice/internal/serve"
)

// benchReport is the BENCH_serve.json schema: the run's configuration,
// the driver-side result (achieved QPS, error count, latency quantiles),
// and — when the run went over HTTP — the server-side metrics snapshot so
// driver and server numbers can be cross-checked.
type benchReport struct {
	Config   benchConfig     `json:"config"`
	Workload workloadSummary `json:"workload"`
	Result   *loadgen.Result `json:"result"`
	// BatchResult is the batched run over the same workload and worker
	// count (-batch N), for a direct single-vs-batched throughput
	// comparison in one report.
	BatchResult *loadgen.Result `json:"batch_result,omitempty"`
	// Methods is the accuracy×latency matrix from a -methods sweep: every
	// requested estimator driven in-process over the same workload, scored
	// against exact counts on a subsample.
	Methods []methodReport `json:"methods,omitempty"`
	// TenantResult is the multi-tenant mix run (-tenants N): the same
	// workload driven round-robin across N tenants' /v1/t routes, so the
	// registry, per-tenant quotas, and per-tenant metrics sit on the
	// measured path.
	TenantResult *loadgen.Result `json:"tenant_result,omitempty"`
	// Backends is the -backends comparison: the corpus summary snapshotted
	// in each on-disk form, reloaded through the serving path, and driven
	// in-process over the same workload — snapshot size, resident bytes,
	// and lookup throughput side by side.
	Backends []backendReport `json:"backends,omitempty"`
	// Ingest is the -ingest mixed read/write run: the same estimate
	// workload driven against an ingest-enabled copy of the corpus while
	// a writer streams document uploads through the delta/epoch pipeline,
	// so read latency under continuous ingest (and refreeze churn) is on
	// the record next to the read-only numbers.
	Ingest *ingestReport `json:"ingest,omitempty"`
	// QueryPlan is the -query matrix: plan-guided vs naive-order twig
	// execution over the Table 3 datasets (candidate reduction and
	// latency), plus the served /v1/query mix when an in-process server
	// was on the measured path.
	QueryPlan     *queryPlanReport `json:"query_plan,omitempty"`
	ServerMetrics *obs.Snapshot    `json:"server_metrics,omitempty"`
}

// ingestReport is the -ingest row: read-side throughput/latency measured
// while writes flowed, the write-side outcome tally, and the pipeline's
// final counters (epoch reached, refreezes, backpressure).
type ingestReport struct {
	ReadResult    *loadgen.Result  `json:"read_result"`
	DocsAdded     int              `json:"docs_added"`
	WriteErrors   int              `json:"write_errors"`
	Backpressured int              `json:"backpressured_429"`
	Stats         core.IngestStats `json:"stats"`
}

// backendReport is one row of the frozen-vs-compressed backend matrix.
type backendReport struct {
	Backend       string  `json:"backend"`
	SnapshotBytes int64   `json:"snapshot_bytes"`
	ResidentBytes int     `json:"resident_bytes"`
	AchievedQPS   float64 `json:"achieved_qps"`
	P50ms         float64 `json:"p50_ms"`
	P95ms         float64 `json:"p95_ms"`
	P99ms         float64 `json:"p99_ms"`
	Errors        uint64  `json:"errors,omitempty"`
}

// methodReport is one row of the accuracy×latency matrix.
type methodReport struct {
	Method string `json:"method"`
	// PrepareMs is the cold-start cost: the first estimate, which builds
	// the method's prepared instance (index, tables, sketches) on demand.
	PrepareMs   float64           `json:"prepare_ms"`
	AchievedQPS float64           `json:"achieved_qps"`
	P50ms       float64           `json:"p50_ms"`
	P95ms       float64           `json:"p95_ms"`
	P99ms       float64           `json:"p99_ms"`
	Errors      uint64            `json:"errors,omitempty"`
	Accuracy    *loadgen.Accuracy `json:"accuracy,omitempty"`
}

type benchConfig struct {
	Corpus      string  `json:"corpus,omitempty"`
	Generated   string  `json:"generated,omitempty"`
	Scale       int     `json:"scale,omitempty"`
	K           int     `json:"k"`
	Method      string  `json:"method"`
	Sizes       []int   `json:"sizes"`
	PerSize     int     `json:"per_size"`
	NegFraction float64 `json:"negative_fraction"`
	Seed        int64   `json:"seed"`
	Concurrency int     `json:"concurrency"`
	Batch       int     `json:"batch,omitempty"`
	DurationSec float64 `json:"duration_seconds,omitempty"`
	Requests    int     `json:"requests,omitempty"`
	WarmupSec   float64 `json:"warmup_seconds,omitempty"`
	OpenLoopQPS float64 `json:"open_loop_qps,omitempty"`
	Tenants     int     `json:"tenants,omitempty"`
}

type workloadSummary struct {
	Queries   int `json:"queries"`
	Positives int `json:"positives"`
	Negatives int `json:"negatives"`
}

// runLoadbench generates a workload, drives a target (in-process server by
// default), and writes the perf-trajectory report.
func runLoadbench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadbench", flag.ExitOnError)
	dir := fs.String("corpus", "", "existing corpus directory to serve and query")
	gen := fs.String("gen", "", "generate a synthetic corpus instead (nasa | imdb | psd | xmark)")
	scale := fs.Int("scale", 20000, "approximate element count of the generated document")
	k := fs.Int("k", 4, "lattice level for the generated corpus")
	liveURL := fs.String("url", "", "drive a live server at this base URL instead of starting one")
	inproc := fs.Bool("inproc", false, "drive the estimator in-process (no HTTP) to isolate engine cost")
	method := fs.String("method", string(core.MethodRecursiveVoting), "estimation method")
	duration := fs.Duration("duration", 5*time.Second, "measured run length (ignored when -requests is set)")
	requests := fs.Int("requests", 0, "stop after a fixed request count instead of a duration")
	concurrency := fs.Int("concurrency", 0, "driver workers (0 = all CPUs)")
	qps := fs.Float64("qps", 0, "open-loop arrival rate; 0 = closed loop")
	batch := fs.Int("batch", 0, "also run batched via POST /v1/estimate/batch with this many queries per request (HTTP targets, closed loop only)")
	warmup := fs.Duration("warmup", 500*time.Millisecond, "unmeasured warmup before the run")
	sizes := fs.String("sizes", "3,4,5", "comma-separated query sizes")
	perSize := fs.Int("persize", 20, "distinct positive queries per size per document")
	neg := fs.Float64("neg", 0.25, "target fraction of zero-selectivity queries in the mix")
	seed := fs.Int64("seed", 1, "workload generation seed (same seed = same mix)")
	methodsSpec := fs.String("methods", "", `sweep these estimation methods in-process ("all" or a comma list), adding a per-method accuracy×latency matrix to the report`)
	tenants := fs.Int("tenants", 0, "also drive the workload round-robin across this many tenants' /v1/t/{tenant}/estimate routes (default in-process server only)")
	backends := fs.Bool("backends", false, "also compare the frozen and compressed snapshot backends in-process over the same workload, adding a size×throughput matrix to the report")
	queryMatrix := fs.Bool("query", false, "also run the plan-vs-naive twig execution matrix over the Table 3 datasets (nasa, imdb, psd, xmark), adding a query_plan section to the report; with the default in-process server, additionally drives a count-only /v1/query mix over HTTP")
	queryScale := fs.Int("queryscale", 20000, "approximate element count of each -query dataset document")
	queryPasses := fs.Int("querypasses", 3, "timed repetitions of the -query execution loop")
	ingestMix := fs.Bool("ingest", false, "also run a mixed read/write pass: enable zero-downtime ingest on a throwaway copy of the corpus and measure estimate latency while a writer streams document uploads through the delta/epoch pipeline")
	ingestDur := fs.Duration("ingestdur", 3*time.Second, "measured duration of the -ingest mixed pass")
	accQueries := fs.Int("accqueries", 60, "queries scored against exact counts per swept method (-methods)")
	sweepRequests := fs.Int("sweeprequests", 300, "timed requests per swept method (-methods)")
	out := fs.String("out", "BENCH_serve.json", "report output path")
	fs.Parse(args)

	if (*dir == "") == (*gen == "") {
		return fmt.Errorf("loadbench: exactly one of -corpus and -gen is required")
	}
	sizeList, err := parseSizes(*sizes)
	if err != nil {
		return err
	}

	// Resolve the corpus: open an existing one or generate a synthetic
	// document into a throwaway corpus directory.
	var c *corpus.Corpus
	var corpusDir string
	cfg := benchConfig{
		Method: *method, Sizes: sizeList, PerSize: *perSize,
		NegFraction: *neg, Seed: *seed, Concurrency: *concurrency,
	}
	if *dir != "" {
		c, err = corpus.Open(*dir)
		if err != nil {
			return err
		}
		cfg.Corpus = *dir
		cfg.K = c.Options().K
		corpusDir = *dir
	} else {
		tmp, err := os.MkdirTemp("", "loadbench-corpus-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		c, err = generatedCorpus(tmp, datagen.Profile(*gen), *scale, *k, *seed)
		if err != nil {
			return err
		}
		cfg.Generated, cfg.Scale, cfg.K = *gen, *scale, *k
		corpusDir = tmp
	}
	if len(c.Docs()) == 0 {
		return fmt.Errorf("loadbench: corpus has no documents to sample queries from")
	}

	// Workload: sampled from every document in the corpus.
	trees := make([]*labeltree.Tree, 0, len(c.Docs()))
	for _, name := range c.Docs() {
		t, _ := c.Doc(name)
		trees = append(trees, t)
	}
	w, err := loadgen.BuildWorkload(trees, c.Dict(), loadgen.WorkloadOptions{
		Sizes: sizeList, PerSize: *perSize, NegativeFraction: *neg, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload: %d queries (%d positive, %d negative), seed %d\n",
		len(w.Items), w.Positives, w.Negatives, *seed)

	// Target: a live URL, the bare estimator, or (default) an in-process
	// HTTP server over a loopback listener — the full serving path
	// without requiring a separate process.
	var target loadgen.Target
	var batchTarget loadgen.BatchTarget
	var tenantTargets []loadgen.Target
	var scrapeMetrics func() (*obs.Snapshot, error)
	var serverBase string
	switch {
	case *liveURL != "":
		base := strings.TrimSuffix(*liveURL, "/")
		target = loadgen.NewHTTPTarget(base, core.Method(*method), nil)
		batchTarget = loadgen.NewHTTPBatchTarget(base, core.Method(*method), nil)
		scrapeMetrics = func() (*obs.Snapshot, error) { return scrapeHTTPMetrics(*liveURL) }
	case *inproc:
		t, err := loadgen.NewEstimatorTarget(c.Summary(), core.Method(*method))
		if err != nil {
			return err
		}
		target = t
	default:
		var sopts serve.Options
		// -tenants: materialize a throwaway fleet root of N tenants, each
		// holding the corpus summary as a frozen snapshot, so the tenant
		// routes resolve through the real registry load path.
		var tenantNames []string
		if *tenants > 0 {
			fleetRoot, err := os.MkdirTemp("", "loadbench-fleet-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(fleetRoot)
			tenantNames, err = writeTenantFleet(fleetRoot, c.Summary(), *tenants)
			if err != nil {
				return err
			}
			sopts.Fleet = fleet.NewRegistry(fleet.RegistryOptions{
				Root: fleetRoot, MaxResident: *tenants,
			})
		}
		handler := serve.NewHandlerOptions(c, sopts)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := defaultTuning().server(handler)
		go srv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		}()
		base := "http://" + ln.Addr().String()
		serverBase = base
		fmt.Fprintf(stdout, "in-process server on %s\n", base)
		target = loadgen.NewHTTPTarget(base, core.Method(*method), nil)
		batchTarget = loadgen.NewHTTPBatchTarget(base, core.Method(*method), nil)
		for _, name := range tenantNames {
			tenantTargets = append(tenantTargets,
				loadgen.NewHTTPTarget(base, core.Method(*method), nil).
					WithPath("/v1/t/"+name+"/estimate"))
		}
		scrapeMetrics = func() (*obs.Snapshot, error) {
			s := handler.Metrics().Snapshot()
			return &s, nil
		}
	}
	if *batch > 1 && batchTarget == nil {
		return fmt.Errorf("loadbench: -batch requires an HTTP target (drop -inproc)")
	}
	if *tenants > 0 && len(tenantTargets) == 0 {
		return fmt.Errorf("loadbench: -tenants requires the default in-process server (drop -inproc and -url)")
	}

	opts := loadgen.Options{
		Concurrency: *concurrency,
		Warmup:      *warmup,
		OpenLoopQPS: *qps,
	}
	if *requests > 0 {
		opts.Requests = *requests
		cfg.Requests = *requests
	} else {
		opts.Duration = *duration
		cfg.DurationSec = duration.Seconds()
	}
	cfg.WarmupSec = warmup.Seconds()
	cfg.OpenLoopQPS = *qps

	res, err := loadgen.Run(context.Background(), target, w, opts)
	if err != nil {
		return err
	}

	// Batched pass over the same workload: identical stopping rule and
	// concurrency, queries carried -batch at a time per request.
	var batchRes *loadgen.Result
	if *batch > 1 {
		cfg.Batch = *batch
		bopts := opts
		bopts.BatchSize = *batch
		batchRes, err = loadgen.Run(context.Background(), batchTarget, w, bopts)
		if err != nil {
			return err
		}
	}

	// Multi-tenant mix: the same workload and stopping rule, driven
	// round-robin across the tenant routes, so the registry lookup,
	// per-tenant quota check, and per-tenant metrics are on the path.
	var tenantRes *loadgen.Result
	if len(tenantTargets) > 0 {
		cfg.Tenants = *tenants
		tenantRes, err = loadgen.Run(context.Background(),
			loadgen.RoundRobin(tenantTargets...), w, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "tenants ×%d: %.0f req/s over %.2fs (%d issued, %d errors)\n",
			*tenants, tenantRes.AchievedQPS, tenantRes.ElapsedSeconds,
			tenantRes.Issued, tenantRes.Errors)
	}

	// Method sweep: every requested estimator in-process over the same
	// workload, timed and scored, so one report answers "which method, at
	// what cost, for what accuracy" side by side.
	var methodRows []methodReport
	if *methodsSpec != "" {
		methodRows, err = sweepMethods(context.Background(), c, trees, w,
			*methodsSpec, *concurrency, *sweepRequests, *accQueries, stdout)
		if err != nil {
			return err
		}
	}

	// Backend comparison: one row per snapshot form, reloaded through the
	// format-sniffing serving path and driven in-process.
	var backendRows []backendReport
	if *backends {
		backendRows, err = sweepBackends(context.Background(), c, w,
			core.Method(*method), *concurrency, *sweepRequests, stdout)
		if err != nil {
			return err
		}
	}

	// Mixed read/write pass: ingest-enabled copy of the corpus, estimates
	// and document uploads concurrently through the full HTTP path.
	var ingestRep *ingestReport
	if *ingestMix {
		ingestRep, err = runIngestMix(context.Background(), corpusDir, w,
			core.Method(*method), *concurrency, *ingestDur, stdout)
		if err != nil {
			return err
		}
	}

	// Plan-vs-naive twig execution matrix over the Table 3 datasets, plus
	// (when the default in-process server is up) a served /v1/query mix so
	// the full HTTP execution path has numbers on the record too.
	var queryPlan *queryPlanReport
	if *queryMatrix {
		rows, err := runQueryPlanMatrix(context.Background(), datagen.AllProfiles(),
			*queryScale, *k, *seed, *queryPasses, stdout)
		if err != nil {
			return err
		}
		queryPlan = &queryPlanReport{Datasets: rows}
		if serverBase != "" {
			qt := loadgen.NewHTTPTarget(serverBase, "", nil).
				WithPath("/v1/query").WithParam("count", "1")
			mixRes, err := loadgen.Run(context.Background(), qt, w, opts)
			if err != nil {
				return err
			}
			queryPlan.ServedMix = mixRes
			fmt.Fprintf(stdout, "served /v1/query mix: %.0f req/s  p50=%.3fms p99=%.3fms (%d issued, %d errors)\n",
				mixRes.AchievedQPS, mixRes.Latency.P50*1e3, mixRes.Latency.P99*1e3,
				mixRes.Issued, mixRes.Errors)
		}
	}

	report := benchReport{
		Config: cfg,
		Workload: workloadSummary{
			Queries: len(w.Items), Positives: w.Positives, Negatives: w.Negatives,
		},
		Result:       res,
		BatchResult:  batchRes,
		Methods:      methodRows,
		TenantResult: tenantRes,
		Backends:     backendRows,
		Ingest:       ingestRep,
		QueryPlan:    queryPlan,
	}
	if scrapeMetrics != nil {
		snap, err := scrapeMetrics()
		if err != nil {
			return fmt.Errorf("loadbench: scraping server metrics: %w", err)
		}
		report.ServerMetrics = snap
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s %s: %.0f req/s over %.2fs (%d issued, %d errors)\n",
		res.Mode, res.Target, res.AchievedQPS, res.ElapsedSeconds, res.Issued, res.Errors)
	fmt.Fprintf(stdout, "latency p50=%.3fms p95=%.3fms p99=%.3fms\n",
		res.Latency.P50*1e3, res.Latency.P95*1e3, res.Latency.P99*1e3)
	if batchRes != nil {
		fmt.Fprintf(stdout, "batched ×%d %s: %.0f queries/s over %.2fs (%d issued, %d errors)\n",
			batchRes.BatchSize, batchRes.Target, batchRes.AchievedQPS,
			batchRes.ElapsedSeconds, batchRes.Issued, batchRes.Errors)
		if res.AchievedQPS > 0 {
			fmt.Fprintf(stdout, "batched throughput = %.2f× single\n",
				batchRes.AchievedQPS/res.AchievedQPS)
		}
	}
	fmt.Fprintf(stdout, "report written to %s\n", *out)
	return nil
}

// sweepMethods drives each requested estimator in-process over the
// workload and scores it against exact counts, producing the report's
// accuracy×latency matrix. spec is "all" (every registered method) or a
// comma list; unknown names fail the run with the registry's method list
// in the error.
func sweepMethods(ctx context.Context, c *corpus.Corpus, trees []*labeltree.Tree, w *loadgen.Workload, spec string, concurrency, requests, accQueries int, stdout io.Writer) ([]methodReport, error) {
	sum := c.Summary()
	var methods []core.Method
	if spec == "all" {
		methods = sum.Registry().Methods()
	} else {
		for _, part := range strings.Split(spec, ",") {
			methods = append(methods, core.Method(strings.TrimSpace(part)))
		}
	}
	rows := make([]methodReport, 0, len(methods))
	for _, m := range methods {
		if _, err := sum.LookupMethod(m); err != nil {
			return nil, err
		}
		row := methodReport{Method: string(m)}

		// First estimate pays the lazy Prepare (index/table/sketch build);
		// time it separately so steady-state latency stays clean. A blown
		// probe budget on this one query is a per-query outcome, not a
		// prepare failure.
		prepStart := time.Now()
		if _, err := sum.EstimateStrict(ctx, w.Items[0].Pattern, m); err != nil &&
			!errors.Is(err, core.ErrBudgetExhausted) {
			return nil, fmt.Errorf("loadbench: method %s failed on first query: %w", m, err)
		}
		row.PrepareMs = float64(time.Since(prepStart)) / 1e6

		target, err := loadgen.NewEstimatorTarget(sum, m)
		if err != nil {
			return nil, err
		}
		res, err := loadgen.Run(ctx, target, w, loadgen.Options{
			Concurrency: concurrency, Requests: requests,
		})
		if err != nil {
			return nil, err
		}
		row.AchievedQPS = res.AchievedQPS
		row.P50ms = res.Latency.P50 * 1e3
		row.P95ms = res.Latency.P95 * 1e3
		row.P99ms = res.Latency.P99 * 1e3
		row.Errors = res.Errors

		acc, err := loadgen.MeasureAccuracy(ctx, sum, trees, w, m, accQueries)
		if err != nil {
			return nil, fmt.Errorf("loadbench: scoring method %s: %w", m, err)
		}
		row.Accuracy = acc

		line := fmt.Sprintf("method %-17s %9.0f req/s  p50=%.3fms p95=%.3fms  q-err mean=%.2f p95=%.2f",
			m, row.AchievedQPS, row.P50ms, row.P95ms, acc.MeanQError, acc.P95QError)
		if acc.Checked > 0 {
			line += fmt.Sprintf("  divergent %d/%d", acc.Divergent, acc.Checked)
		}
		fmt.Fprintln(stdout, line)
		rows = append(rows, row)
	}
	return rows, nil
}

// sweepBackends snapshots the corpus summary in each on-disk form (TLAT
// frozen, TLCZ compressed), reloads it through core.OpenSnapshotFile —
// the same magic-sniffing path serving replicas use — and drives the
// workload in-process against each, producing the report's backend
// matrix. Snapshots load against the corpus dictionary so the workload's
// already-parsed queries stay valid.
func sweepBackends(ctx context.Context, c *corpus.Corpus, w *loadgen.Workload, method core.Method, concurrency, requests int, stdout io.Writer) ([]backendReport, error) {
	tmp, err := os.MkdirTemp("", "loadbench-backend-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	sum := c.Summary()
	kinds := []struct {
		name  string
		write func(io.Writer) (int64, error)
	}{
		{"frozen", sum.WriteTo},
		{"compressed", sum.WriteCompressed},
	}
	rows := make([]backendReport, 0, len(kinds))
	for _, kind := range kinds {
		path := filepath.Join(tmp, "summary-"+kind.name+".tlat")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if _, err := kind.write(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		loaded, err := core.OpenSnapshotFile(path, c.Dict())
		if err != nil {
			return nil, fmt.Errorf("loadbench: reloading %s snapshot: %w", kind.name, err)
		}
		target, err := loadgen.NewEstimatorTarget(loaded, method)
		if err != nil {
			return nil, err
		}
		res, err := loadgen.Run(ctx, target, w, loadgen.Options{
			Concurrency: concurrency, Requests: requests,
		})
		if err != nil {
			return nil, err
		}
		row := backendReport{
			Backend:       loaded.StoreKind(),
			SnapshotBytes: info.Size(),
			ResidentBytes: loaded.ResidentBytes(),
			AchievedQPS:   res.AchievedQPS,
			P50ms:         res.Latency.P50 * 1e3,
			P95ms:         res.Latency.P95 * 1e3,
			P99ms:         res.Latency.P99 * 1e3,
			Errors:        res.Errors,
		}
		fmt.Fprintf(stdout, "backend %-10s %9.0f req/s  p50=%.3fms p95=%.3fms  snapshot=%dB resident=%dB\n",
			row.Backend, row.AchievedQPS, row.P50ms, row.P95ms, row.SnapshotBytes, row.ResidentBytes)
		rows = append(rows, row)
	}
	return rows, nil
}

// runIngestMix measures read latency under continuous ingest: it copies
// the corpus into a throwaway directory (the pipeline writes snapshots
// and delta documents; the benchmarked corpus must stay untouched),
// enables zero-downtime ingest with an aggressive refreeze cadence, and
// drives the estimate workload over HTTP while a writer goroutine
// streams small generated documents through POST /v1/docs. Reads and
// writes share the full serving path, so the row reflects epoch swaps,
// refreeze churn, and (if the writer outruns the refreezer) 429
// backpressure.
func runIngestMix(ctx context.Context, srcDir string, w *loadgen.Workload, method core.Method, concurrency int, dur time.Duration, stdout io.Writer) (*ingestReport, error) {
	tmp, err := os.MkdirTemp("", "loadbench-ingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	if err := copyDirTree(srcDir, tmp); err != nil {
		return nil, err
	}
	c, err := corpus.Open(tmp)
	if err != nil {
		return nil, err
	}
	err = c.EnableIngest(corpus.IngestOptions{
		RefreezeInterval: 500 * time.Millisecond,
		MaxDeltaDocs:     16,
	})
	if err != nil {
		return nil, err
	}
	defer c.DisableIngest()

	handler := serve.NewHandlerOptions(c, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := defaultTuning().server(handler)
	go srv.Serve(ln)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()
	base := "http://" + ln.Addr().String()

	wctx, cancelWrites := context.WithCancel(ctx)
	defer cancelWrites()
	var docsAdded, writeErrs, backpressured int
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		dict := labeltree.NewDict()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-wctx.Done():
				return
			case <-tick.C:
			}
			tree, err := datagen.Generate(datagen.Config{
				Profile: datagen.Profile("xmark"), Scale: 300, Seed: int64(i) + 1,
			}, dict)
			if err != nil {
				writeErrs++
				continue
			}
			var b strings.Builder
			writeTreeXML(&b, tree, 0)
			url := fmt.Sprintf("%s/v1/docs/ingest-%05d", base, i)
			req, err := http.NewRequestWithContext(wctx, http.MethodPost, url, strings.NewReader(b.String()))
			if err != nil {
				writeErrs++
				continue
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				if wctx.Err() != nil {
					return
				}
				writeErrs++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				docsAdded++
			case http.StatusTooManyRequests:
				backpressured++ // delta over its hard limit; refreezer catching up
			default:
				writeErrs++
			}
		}
	}()

	target := loadgen.NewHTTPTarget(base, method, nil)
	res, err := loadgen.Run(ctx, target, w, loadgen.Options{
		Concurrency: concurrency, Duration: dur, Warmup: dur / 8,
	})
	cancelWrites()
	<-writerDone
	if err != nil {
		return nil, err
	}
	rep := &ingestReport{
		ReadResult:    res,
		DocsAdded:     docsAdded,
		WriteErrors:   writeErrs,
		Backpressured: backpressured,
		Stats:         c.IngestStats(),
	}
	fmt.Fprintf(stdout, "ingest mix: %.0f reads/s  p50=%.3fms p99=%.3fms  |  %d docs added, %d backpressured, epoch %d, %d refreezes\n",
		res.AchievedQPS, res.Latency.P50*1e3, res.Latency.P99*1e3,
		rep.DocsAdded, rep.Backpressured, rep.Stats.Epoch, rep.Stats.Refreezes)
	return rep, nil
}

// copyDirTree copies a directory recursively (regular files only — the
// corpus layout holds nothing else).
func copyDirTree(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return err
			}
			if err := copyDirTree(s, d); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			return err
		}
		if err := os.WriteFile(d, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeTenantFleet materializes n tenants under root, each holding the
// summary as a frozen snapshot, and returns their names — a fleet root
// the serve registry can lazily load from.
func writeTenantFleet(root string, sum *core.Summary, n int) ([]string, error) {
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("t%d", i)
		dir := filepath.Join(root, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(dir, fleet.SummaryFile))
		if err != nil {
			return nil, err
		}
		if _, err := sum.WriteTo(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// parseSizes parses "3,4,5".
func parseSizes(s string) ([]int, error) { return parseIntList(s, "-sizes") }

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s, flagName string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("loadbench: invalid %s entry %q", flagName, p)
		}
		out = append(out, n)
	}
	return out, nil
}

// generatedCorpus creates a corpus in dir holding one synthetic document.
func generatedCorpus(dir string, profile datagen.Profile, scale, k int, seed int64) (*corpus.Corpus, error) {
	c, err := corpus.Create(dir, corpus.Options{K: k})
	if err != nil {
		return nil, err
	}
	dict := labeltree.NewDict()
	tree, err := datagen.Generate(datagen.Config{Profile: profile, Scale: scale, Seed: seed}, dict)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	writeTreeXML(&b, tree, 0)
	if err := c.AddXML(string(profile), strings.NewReader(b.String())); err != nil {
		return nil, err
	}
	return c, nil
}

// writeTreeXML renders a label tree as XML (labels are element names;
// datagen label alphabets are valid XML names).
func writeTreeXML(b *strings.Builder, t *labeltree.Tree, node int32) {
	name := t.LabelName(node)
	kids := t.Children(node)
	if len(kids) == 0 {
		fmt.Fprintf(b, "<%s/>", name)
		return
	}
	fmt.Fprintf(b, "<%s>", name)
	for _, c := range kids {
		writeTreeXML(b, t, c)
	}
	fmt.Fprintf(b, "</%s>", name)
}

// scrapeHTTPMetrics fetches a live server's /v1/metrics.
func scrapeHTTPMetrics(base string) (*obs.Snapshot, error) {
	resp, err := http.Get(strings.TrimSuffix(base, "/") + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics endpoint returned %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"treelattice/internal/corpus"
	"treelattice/internal/fleet"
	"treelattice/internal/labeltree"
	"treelattice/internal/obs"
	"treelattice/internal/serve"
)

// runExplain estimates a query with its work trace and decomposition
// spread.
func runExplain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	summaryPath := fs.String("summary", "", "summary file from 'build'")
	query := fs.String("query", "", "twig query")
	fs.Parse(args)
	if *summaryPath == "" || *query == "" {
		return fmt.Errorf("explain: -summary and -query are required")
	}
	sum, err := loadSummary(*summaryPath)
	if err != nil {
		return err
	}
	q, err := labeltree.ParsePattern(*query, sum.Dict())
	if err != nil {
		return err
	}
	est, trace, iv, err := sum.Explain(context.Background(), q)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "estimate:        %.2f\n", est)
	fmt.Fprintf(stdout, "spread:          [%.2f, %.2f]\n", iv.Lo, iv.Hi)
	fmt.Fprintf(stdout, "memo hits:       %d\n", trace.MemoHits)
	fmt.Fprintf(stdout, "lattice hits:    %d\n", trace.LatticeHits)
	fmt.Fprintf(stdout, "lattice misses:  %d\n", trace.LatticeMisses)
	fmt.Fprintf(stdout, "reconstructions: %d\n", trace.Reconstructions)
	fmt.Fprintf(stdout, "augmentations:   %d\n", trace.Augmentations)
	fmt.Fprintf(stdout, "max depth:       %d\n", trace.MaxDepth)
	return nil
}

// runCorpus dispatches the corpus subcommands.
func runCorpus(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("corpus: expected init | add | addall | rm | stats")
	}
	switch args[0] {
	case "init":
		fs := flag.NewFlagSet("corpus init", flag.ExitOnError)
		dir := fs.String("dir", "", "corpus directory")
		k := fs.Int("k", 4, "lattice level")
		buckets := fs.Int("buckets", 0, "value buckets (0 = structure only)")
		attrs := fs.Bool("attributes", false, "model attributes as nodes")
		fs.Parse(args[1:])
		if *dir == "" {
			return fmt.Errorf("corpus init: -dir is required")
		}
		_, err := corpus.Create(*dir, corpus.Options{K: *k, ValueBuckets: *buckets, Attributes: *attrs})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "initialized corpus in %s (K=%d)\n", *dir, *k)
		return nil
	case "add":
		fs := flag.NewFlagSet("corpus add", flag.ExitOnError)
		dir := fs.String("dir", "", "corpus directory")
		name := fs.String("name", "", "document name")
		in := fs.String("in", "", "XML file")
		fs.Parse(args[1:])
		if *dir == "" || *name == "" || *in == "" {
			return fmt.Errorf("corpus add: -dir, -name and -in are required")
		}
		c, err := corpus.Open(*dir)
		if err != nil {
			return err
		}
		// CLI loads are operator-supplied local files, not untrusted
		// uploads; the parser's depth/node caps are lifted.
		c.SetUnboundedParse(true)
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.AddXML(*name, f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "added %s\n", *name)
		return nil
	case "addall":
		fs := flag.NewFlagSet("corpus addall", flag.ExitOnError)
		dir := fs.String("dir", "", "corpus directory")
		workers := fs.Int("workers", 0, "build parallelism (0 = all CPUs)")
		fs.Parse(args[1:])
		files := fs.Args()
		if *dir == "" || len(files) == 0 {
			return fmt.Errorf("corpus addall: -dir and at least one XML file are required")
		}
		c, err := corpus.Open(*dir)
		if err != nil {
			return err
		}
		c.SetUnboundedParse(true)
		c.SetWorkers(*workers)
		docs := make([]corpus.BatchDoc, 0, len(files))
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			docs = append(docs, corpus.BatchDoc{Name: name, R: f})
		}
		if err := c.AddXMLBatch(context.Background(), docs); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "added %d documents", len(docs))
		if t := c.BuildTimings(); t != nil {
			// A stage can run twice (the delta takes the batch, then the
			// fold); print each stage's total once, in pipeline order.
			ms := t.Millis()
			for _, stage := range []string{"parse", "mine", "reduce", "merge", "persist"} {
				if v, ok := ms[stage]; ok {
					fmt.Fprintf(stdout, " %s=%s", stage, time.Duration(v*float64(time.Millisecond)).Round(time.Millisecond))
				}
			}
		}
		fmt.Fprintln(stdout)
		return nil
	case "rm":
		fs := flag.NewFlagSet("corpus rm", flag.ExitOnError)
		dir := fs.String("dir", "", "corpus directory")
		name := fs.String("name", "", "document name")
		fs.Parse(args[1:])
		if *dir == "" || *name == "" {
			return fmt.Errorf("corpus rm: -dir and -name are required")
		}
		c, err := corpus.Open(*dir)
		if err != nil {
			return err
		}
		if err := c.Remove(*name); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "removed %s\n", *name)
		return nil
	case "stats":
		fs := flag.NewFlagSet("corpus stats", flag.ExitOnError)
		dir := fs.String("dir", "", "corpus directory")
		fs.Parse(args[1:])
		if *dir == "" {
			return fmt.Errorf("corpus stats: -dir is required")
		}
		c, err := corpus.Open(*dir)
		if err != nil {
			return err
		}
		s := c.Summary()
		fmt.Fprintf(stdout, "K=%d patterns=%d bytes=%d documents=%d\n",
			s.K(), s.Patterns(), s.SizeBytes(), len(c.Docs()))
		for _, d := range c.Docs() {
			tree, _ := c.Doc(d)
			fmt.Fprintf(stdout, "  %s: %d elements\n", d, tree.Size())
		}
		return nil
	default:
		return fmt.Errorf("corpus: unknown subcommand %q", args[0])
	}
}

// httpTuning is the http.Server protection envelope: slowloris defense
// (header timeout), bounds on slow readers and stuck writers, idle
// connection reaping, and a header size cap. The zero value of each field
// in Go's http.Server means "no limit", which is the wrong default for a
// network-facing daemon, so every listener goes through this struct.
type httpTuning struct {
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	writeTimeout      time.Duration
	idleTimeout       time.Duration
	maxHeaderBytes    int
}

// defaultTuning returns production-safe server limits. Read and write
// timeouts are generous because document uploads can be large and exact
// counts on big corpora are slow; they exist to reap dead peers, not to
// bound work (per-endpoint deadline budgets do that).
func defaultTuning() httpTuning {
	return httpTuning{
		readHeaderTimeout: 5 * time.Second,
		readTimeout:       5 * time.Minute,
		writeTimeout:      5 * time.Minute,
		idleTimeout:       2 * time.Minute,
		maxHeaderBytes:    1 << 20,
	}
}

// register exposes the tuning knobs as flags, defaulting to the receiver's
// current values.
func (t *httpTuning) register(fs *flag.FlagSet) {
	fs.DurationVar(&t.readHeaderTimeout, "read-header-timeout", t.readHeaderTimeout, "max time to read request headers (slowloris guard)")
	fs.DurationVar(&t.readTimeout, "read-timeout", t.readTimeout, "max time to read a full request, including the body")
	fs.DurationVar(&t.writeTimeout, "write-timeout", t.writeTimeout, "max time to write a response")
	fs.DurationVar(&t.idleTimeout, "idle-timeout", t.idleTimeout, "max keep-alive idle time before the connection is closed")
	fs.IntVar(&t.maxHeaderBytes, "max-header-bytes", t.maxHeaderBytes, "max request header size in bytes")
}

// server builds an http.Server carrying the tuning limits.
func (t httpTuning) server(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: t.readHeaderTimeout,
		ReadTimeout:       t.readTimeout,
		WriteTimeout:      t.writeTimeout,
		IdleTimeout:       t.idleTimeout,
		MaxHeaderBytes:    t.maxHeaderBytes,
	}
}

// registerResilienceFlags exposes the admission/deadline knobs of
// serve.ResilienceOptions as flags. All default to off (zero), matching
// the library default; operators opt in per deployment.
func registerResilienceFlags(fs *flag.FlagSet, r *serve.ResilienceOptions) {
	fs.IntVar(&r.AdmissionLimit, "admission-limit", 0, "max concurrent query/mutation requests; excess queues then sheds with 429 (0 = unlimited)")
	fs.IntVar(&r.AdmissionQueue, "admission-queue", 0, "bounded wait queue beyond the admission limit (0 = 2x limit)")
	fs.DurationVar(&r.QueueWait, "queue-wait", 0, "max time a request waits in the admission queue before shedding (0 = default)")
	fs.DurationVar(&r.RetryAfter, "retry-after", 0, "Retry-After hint attached to shed responses (0 = default)")
	fs.DurationVar(&r.EstimateBudget, "estimate-budget", 0, "deadline for /v1/estimate and /v1/explain (0 = none)")
	fs.DurationVar(&r.ExactBudget, "exact-budget", 0, "deadline for /v1/exact (0 = none)")
	fs.DurationVar(&r.BuildBudget, "build-budget", 0, "deadline for document uploads (0 = none)")
	fs.DurationVar(&r.QueryBudget, "query-budget", 0, "deadline for /v1/query twig executions (0 = none)")
	fs.Int64Var(&r.QueryNodeBudget, "query-node-budget", 0, "max candidate nodes (plus same-label sibling DP steps) one /v1/query execution may visit; exhaustion returns a partial count marked degraded (0 = unlimited)")
	fs.BoolVar(&r.DisableFallback, "no-degrade", false, "return 504 instead of degrading estimates to a cheaper method on blown budgets")
	fs.IntVar(&r.TenantQuota, "tenant-quota", 0, "max concurrent estimates per tenant on the /v1/t routes; excess sheds with 429 (0 = unlimited)")
}

// runServe serves a corpus over HTTP until the process receives SIGINT or
// SIGTERM, then drains in-flight requests before exiting.
func runServe(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	dir := fs.String("corpus", "", "corpus directory")
	addr := fs.String("addr", "127.0.0.1:8357", "listen address")
	workers := fs.Int("workers", 0, "upload mining parallelism (0 = all CPUs)")
	frozen := fs.Bool("frozen", false, "serve a read-only replica: opening never writes, and document writes answer 409 unless -ingest is on")
	debugAddr := fs.String("debug-addr", "", "separate listen address for pprof/expvar/metrics (off when empty)")
	fleetRoot := fs.String("fleet", "", "fleet root directory holding one <tenant>/summary.tlat per tenant; enables /v1/t/{tenant} routes beyond the default tenant")
	maxResident := fs.Int("max-resident", 0, "max lazily-loaded tenants resident at once (0 = default)")
	maxResidentBytes := fs.Int64("max-resident-bytes", 0, "byte budget for lazily-loaded tenants; least-recently-used tenants are evicted past it (0 = unlimited)")
	ingest := fs.Bool("ingest", false, "fold in the background: document writes return once they land in the delta overlay served via RCU epochs, and a refreezer folds them into crash-safe snapshots (also opens -frozen replicas to writes)")
	refreezeInterval := fs.Duration("refreeze-interval", 30*time.Second, "background refreeze cadence; watermark crossings also trigger one (0 = watermark-only)")
	deltaMaxBytes := fs.Int("delta-max-bytes", 0, "delta size watermark that kicks an early refreeze (0 = 4MiB)")
	deltaMaxDocs := fs.Int("delta-max-docs", 0, "delta document-count watermark that kicks an early refreeze (0 = 256)")
	deltaMaxAge := fs.Duration("delta-max-age", 0, "oldest-unfolded-document watermark that kicks an early refreeze (0 = 5m)")
	deltaHardBytes := fs.Int("delta-hard-bytes", 0, "hard delta size limit past which ingest answers 429 until a refreeze catches up (0 = 4x -delta-max-bytes)")
	ingestCompress := fs.Bool("ingest-compress", false, "refreeze into compressed (TLCZ) snapshots instead of plain TLAT")
	tune := defaultTuning()
	tune.register(fs)
	var res serve.ResilienceOptions
	registerResilienceFlags(fs, &res)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("serve: -corpus is required")
	}
	open := corpus.Open
	if *frozen {
		open = corpus.OpenReadOnly
	}
	c, err := open(*dir)
	if err != nil {
		return err
	}
	if *ingest {
		err := c.EnableIngest(corpus.IngestOptions{
			RefreezeInterval: *refreezeInterval,
			MaxDeltaBytes:    *deltaMaxBytes,
			MaxDeltaDocs:     *deltaMaxDocs,
			MaxDeltaAge:      *deltaMaxAge,
			HardDeltaBytes:   *deltaHardBytes,
			Compress:         *ingestCompress,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stdout, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		defer func() {
			// Fold the remaining delta into a final snapshot on the way
			// out; a failure is non-fatal (the manifest protocol recovers
			// unfolded documents on the next open).
			if err := c.DisableIngest(); err != nil {
				fmt.Fprintf(stdout, "serve: final refreeze: %v\n", err)
			}
		}()
	}
	sopts := serve.Options{Workers: *workers, Resilience: res}
	if *fleetRoot != "" {
		sopts.Fleet = fleet.NewRegistry(fleet.RegistryOptions{
			Root:             *fleetRoot,
			MaxResident:      *maxResident,
			MaxResidentBytes: *maxResidentBytes,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stdout, format+"\n", args...)
			},
		})
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveCorpus(ctx, c, *addr, *debugAddr, sopts, tune, stdout)
}

// shutdownTimeout bounds the graceful drain: in-flight estimates are
// sub-millisecond, but an upload can spend a while mining and folding a
// big document.
const shutdownTimeout = 10 * time.Second

// serveCorpus runs the HTTP server (and optional debug listener) until
// ctx is canceled, then shuts down gracefully. Split from runServe so
// tests can drive the full lifecycle without sending real signals.
func serveCorpus(ctx context.Context, c *corpus.Corpus, addr, debugAddr string, sopts serve.Options, tune httpTuning, stdout io.Writer) error {
	if sopts.Logf == nil {
		sopts.Logf = func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		}
	}
	handler := serve.NewHandlerOptions(c, sopts)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving corpus on http://%s\n", ln.Addr())
	srv := tune.server(handler)

	// Profiling and low-level introspection never share the traffic
	// port: a held /debug/pprof/profile stream or a heap dump must not
	// compete with estimate traffic for accept slots, and the debug
	// surface stays unreachable from wherever the traffic port is
	// exposed.
	var debugSrv *http.Server
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return err
		}
		debugSrv = tune.server(debugMux(handler.Metrics()))
		// Profile streams run for their full -seconds argument; the
		// traffic write timeout would cut them off.
		debugSrv.WriteTimeout = 0
		go debugSrv.Serve(dln)
		fmt.Fprintf(stdout, "debug endpoints (pprof, expvar, metrics) on http://%s\n", dln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(sctx)
	}
	return srv.Shutdown(sctx)
}

// debugMux mounts net/http/pprof, expvar, and the obs registry on a
// private mux (the pprof import's side-effect registrations go to
// http.DefaultServeMux, which the traffic server never uses).
func debugMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	return mux
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/obs"
	"treelattice/internal/planner"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// The traced run gives the per-layer metrics. It is a separate,
// single-client invocation on the same seed and inputs as the untraced
// run, over a fixed prefix of its op sequence. Each op's root span wraps
// ServeHTTP; its child spans wrap replays of the layer calls ServeHTTP
// made, on the same inputs, timed right after it, so a layer's self time
// is its span minus the durations of its children. On estimate and query
// the replays run on a mirror replica opened on the same directory, whose
// caches see the same call sequence as the served one. Where a replay
// repeats a call on the same summary (the planner after the execution
// replay, every ingest replay), it finds caches the first call warmed.
// End-to-end metrics never come from this run; its own ops_per_s shows
// what the tracing costs.

// The traced prefix is the first 1/tracedShare of the untraced sequence.
var tracedShare = map[string]int{"estimate": 40, "query": 4, "ingest": 2}

const (
	setupReplayDocs = 8 // set-up documents whose parse and mine are replayed
	probeRounds     = 50
)

// span is one timed call. parent indexes the spans slice (-1 for a root);
// op is -1 for calls outside any op (set-up replays, the final refreeze).
type span struct {
	name       string
	op, parent int32
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, op, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = time.Since(t.t0) }

// spanStats aggregates the spans of one name.
type spanStats struct {
	n           int
	total, self time.Duration
}

// meanUS and meanSelfUS are per-span means in microseconds; a name with
// no spans reads 0.
func (s *spanStats) meanUS() float64 {
	if s == nil {
		return 0
	}
	return ratio(float64(s.total), float64(s.n)) / 1e3
}

func (s *spanStats) meanSelfUS() float64 {
	if s == nil {
		return 0
	}
	return ratio(float64(s.self), float64(s.n)) / 1e3
}

// summary aggregates spans by name; self time subtracts the durations of
// a span's children.
func (t *tracer) summary() map[string]*spanStats {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
	}
	return out
}

// write saves the spans as tab-separated lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("span\top\tparent\tname\tstart_ns\tend_ns\n")
	for i, s := range t.spans {
		fmt.Fprintf(&sb, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.op, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if _, err := f.WriteString(sb.String()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocCounter reads the runtime's cumulative allocation counters.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}}
}

func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64(), a.s[1].Value.Uint64()
}

// layerCounts accumulates the per-op counts the traced run gathers.
type layerCounts struct {
	ops, allocs, allocBytes uint64

	estimates     int
	lookups, augs int

	queries     int
	candidates  int64
	matches     int64
	exhausted   int
	calibration []float64

	parseBytes, mineElems int
	parseTime, mineTime   time.Duration
	mined, patterns       int

	writes                int
	refreezes, refreezeMS int64
	snapshotBytes         int64
	xmlBytes              int
}

// tracedRun sets the replica up as the untraced run does, then sends the
// traced prefix with one client and reports every per-layer metric.
func tracedRun(cfg config, in *inputs, root string, report map[string]any) (*result, error) {
	ingest := cfg.workload == "ingest"
	rep, timings, err := setUpMany(root, in.docs, ingest, true, nil)
	if err != nil {
		return nil, err
	}
	defer rep.close()
	// The estimate workload's mirror: a second replica on the same
	// directory whose caches see the same estimate sequence as the served
	// one, so EstimateWithTrace replays there run as cold as the served
	// estimates did.
	var mirror *core.Summary
	if cfg.workload == "estimate" {
		mc, err := corpus.OpenReadOnly(rep.dir)
		if err != nil {
			return nil, fmt.Errorf("opening mirror replica: %w", err)
		}
		mirror = mc.Summary()
	}
	tr := &tracer{t0: time.Now()}
	lc := &layerCounts{}
	reg := rep.reg
	qHits, qMisses, qEvict := reg.Counter("qcache.hits"), reg.Counter("qcache.misses"), reg.Counter("qcache.evictions")
	cl := &tracedClient{tr: tr, ac: newAllocCounter(), lc: lc, rep: rep, rec: newRecorder(), misses: qMisses,
		estHist: reg.Histogram("estimate."+string(core.MethodRecursiveVoting)+".latency_seconds", nil)}
	h0, m0, e0 := qHits.Value(), qMisses.Value(), qEvict.Value()
	sc0 := subcacheTotals(rep)
	var prepare []float64
	addPrepare := func() error {
		p, err := timePrepare(rep.c.Summary())
		prepare = append(prepare, p)
		return err
	}
	if !ingest {
		if err := addPrepare(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	problems := 0
	start := time.Now()
	switch cfg.workload {
	case "estimate":
		for i, qi := range in.estSeq[:len(in.estSeq)/tracedShare["estimate"]] {
			if !cl.estimate(rep.c.Summary(), mirror, &in.est[qi], int32(i)) {
				problems++
			}
		}
	case "query":
		for i, qi := range in.execSeq[:len(in.execSeq)/tracedShare["query"]] {
			if !cl.query(&in.exec[qi], int32(i)) {
				problems++
			}
		}
	case "ingest":
		dict := labeltree.NewDict()
		reads := 0
		writes := in.writes[:len(in.writes)/tracedShare["ingest"]]
		for i, d := range writes {
			before := rep.c.IngestStats()
			if !cl.write(dict, d, int32(i)) {
				problems++
			}
			after := rep.c.IngestStats()
			if after.Refreezes > before.Refreezes {
				lc.refreezes += int64(after.Refreezes - before.Refreezes)
				lc.refreezeMS += after.LastRefreezeMS * int64(after.Refreezes-before.Refreezes)
				lc.snapshotBytes += newestSnapshotBytes(rep.dir)
			}
			if err := addPrepare(); err != nil {
				return nil, err
			}
			for k := 0; k < readsPerWrite; k++ {
				qi := in.estSeq[reads%len(in.estSeq)]
				reads++
				op := int32(len(writes) + reads)
				if !cl.estimate(rep.c.Summary(), nil, &in.est[qi], op) {
					problems++
				}
			}
		}
		report["traced_reads"] = reads
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if ingest {
		id := tr.begin("corpus.refreeze", -1, -1)
		if err := rep.c.Refreeze(context.Background()); err != nil {
			return nil, fmt.Errorf("final refreeze: %w", err)
		}
		tr.end(id)
	}
	if !ingest {
		dict := labeltree.NewDict()
		for _, d := range in.docs[:min(setupReplayDocs, len(in.docs))] {
			replayParseMine(tr, lc, dict, d, -1, -1)
		}
	}

	spans := tr.summary()
	hits, misses, evict := qHits.Value()-h0, qMisses.Value()-m0, qEvict.Value()-e0
	sc1 := subcacheTotals(rep)
	primary := float64(lc.ops)
	if ingest {
		primary = float64(lc.writes)
	}
	m := map[string]metric{}
	m["traced_ops_per_s"] = metric{primary / wall.Seconds(), "1/s"}
	m["serve.self_us"] = metric{spans["serve"].meanSelfUS(), "us"}
	m["serve.allocs_per_op"] = metric{ratio(float64(lc.allocs), float64(lc.ops)), "allocs/op"}
	m["qcache.hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "1"}
	m["qcache.evictions_per_kop"] = metric{ratio(float64(evict), float64(lc.ops)/1e3), "1/kop"}
	m["labeltree.parse_us"] = metric{spans["labeltree.parse"].meanUS(), "us"}
	m["core.estimate_us"] = metric{spans["core.estimate"].meanUS(), "us"}
	m["core.prepare_ms"] = metric{mean(prepare), "ms"}
	m["estimate.subcache_hit_ratio"] = metric{ratio(float64(sc1[0]-sc0[0]), float64(sc1[0]-sc0[0]+sc1[1]-sc0[1])), "1"}
	m["estimate.lookups_per_est"] = metric{ratio(float64(lc.lookups), float64(lc.estimates)), "1"}
	m["estimate.augmentations_per_est"] = metric{ratio(float64(lc.augs), float64(lc.estimates)), "1"}
	m["lattice.resident_mb"] = metric{float64(rep.c.Summary().ResidentBytes()) / 1e6, "MB"}
	probe, backend, err := probeLattice(rep, in)
	if err != nil {
		return nil, err
	}
	m["lattice.probe_ns"] = metric{probe, "ns"}
	report["probed_backend"] = backend
	m["planner.plan_us"] = metric{spans["planner.choose"].meanUS(), "us"}
	m["planner.calibration_p50"] = metric{medianOrZero(lc.calibration), "1"}
	m["twigjoin.exec_us"] = metric{spans["twigjoin.enumerate"].meanUS(), "us"}
	m["twigjoin.candidates_per_query"] = metric{ratio(float64(lc.candidates), float64(lc.queries)), "count"}
	m["twigjoin.match_yield"] = metric{ratio(float64(lc.matches), float64(lc.candidates)), "1"}
	m["twigjoin.budget_exhausted"] = metric{float64(lc.exhausted), "count"}
	ing := rep.c.IngestStats()
	m["corpus.add_ms"] = metric{spans["serve.write"].meanSelfUS() / 1e3, "ms"}
	m["corpus.refreeze_ms"] = metric{ratio(float64(lc.refreezeMS), float64(lc.refreezes)), "ms"}
	m["corpus.refreezes"] = metric{float64(lc.refreezes), "count"}
	m["corpus.epochs"] = metric{float64(ing.Epoch), "count"}
	m["corpus.backpressured"] = metric{float64(ing.Backpressured), "count"}
	m["xmlparse.ms_per_mb"] = metric{ratio(ms(lc.parseTime), float64(lc.parseBytes)/1e6), "ms/MB"}
	m["mine.ms_per_kelem"] = metric{ratio(ms(lc.mineTime), float64(lc.mineElems)/1e3), "ms/kelem"}
	m["mine.patterns_per_doc"] = metric{ratio(float64(lc.patterns), float64(lc.mined)), "count"}
	m["fsx.bytes_per_doc_byte"] = metric{ratio(float64(lc.snapshotBytes), float64(lc.xmlBytes)), "1"}
	var parse, mine, persist, open []float64
	for _, t := range timings {
		parse = append(parse, t.stages["parse"]/1e3)
		mine = append(mine, (t.stages["mine"]+t.stages["reduce"]+t.stages["merge"])/1e3)
		persist = append(persist, t.stages["persist"]/1e3)
		open = append(open, t.open.Seconds())
	}
	m["setup.parse_s"] = metric{median(parse), "s"}
	m["setup.mine_s"] = metric{median(mine), "s"}
	m["setup.persist_s"] = metric{median(persist), "s"}
	m["setup.open_s"] = metric{median(open), "s"}
	m["gc.cycles_per_kop"] = metric{ratio(float64(ms1.NumGC-ms0.NumGC), float64(lc.ops)/1e3), "1/kop"}
	m["gc.pause_ms"] = metric{ratio(float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, float64(ms1.NumGC-ms0.NumGC)), "ms"}
	m["alloc.bytes_per_op"] = metric{ratio(float64(lc.allocBytes), float64(lc.ops)), "B/op"}

	report["traced_ops"] = lc.ops
	report["traced_spans"] = len(tr.spans)
	report["traced_note"] = "per-layer metrics only; child spans replay the calls ServeHTTP made, and replays that repeat a call on the same summary find caches warm"
	tracePath := filepath.Join(filepath.Dir(cfg.dir), "traces", fmt.Sprintf("%s-%d.tsv", cfg.workload, cfg.seed))
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	report["trace_file"] = tracePath
	res := &result{Correct: problems == 0, Attempted: int64(lc.ops), Failed: int64(problems), Metrics: m}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// subcacheTotals sums the sub-estimate cache hit and miss counters the
// handler mirrors into its registry, across methods and epochs.
func subcacheTotals(rep *replica) [2]uint64 {
	var t [2]uint64
	for _, m := range core.Methods() {
		t[0] += rep.reg.Counter("subcache." + string(m) + ".hits").Value()
		t[1] += rep.reg.Counter("subcache." + string(m) + ".misses").Value()
	}
	return t
}

// timePrepare times the first estimate on a summary: the backend's
// preparation plus one lattice probe for a one-node pattern.
func timePrepare(s *core.Summary) (float64, error) {
	q := labeltree.MustPattern([]labeltree.LabelID{0}, []int32{-1})
	start := time.Now()
	if _, _, err := s.EstimateWithTrace(q, core.MethodRecursiveVoting); err != nil {
		return 0, fmt.Errorf("timing prepare: %w", err)
	}
	return ms(time.Since(start)), nil
}

// tracedClient is the traced run's single client.
type tracedClient struct {
	tr      *tracer
	ac      *allocCounter
	lc      *layerCounts
	rep     *replica
	rec     *recorder
	misses  *obs.Counter   // qcache misses
	estHist *obs.Histogram // the handler's recursive+voting estimate latencies
}

// serve runs one request as a root span, counting its allocations.
func (c *tracedClient) serve(tmpl *http.Request, name string, op int32) int32 {
	req := new(http.Request)
	*req = *tmpl
	c.rec.reset()
	o0, b0 := c.ac.read()
	id := c.tr.begin(name, op, -1)
	c.rep.h.ServeHTTP(c.rec, req)
	c.tr.end(id)
	o1, b1 := c.ac.read()
	c.lc.ops++
	c.lc.allocs += o1 - o0
	c.lc.allocBytes += b1 - b0
	return id
}

// estimate sends one estimate. The parse is replayed on the served
// summary; the estimate span is the program's own measurement of the
// estimate ServeHTTP ran (the latency observer the handler installs, read
// as exact sums), so no replay disturbs the served caches. On the estimate
// workload, a qcache miss is also replayed with EstimateWithTrace on the
// mirror, for its work counts.
func (c *tracedClient) estimate(sum, mirror *core.Summary, e *estQuery, op int32) bool {
	tr, lc := c.tr, c.lc
	m0, h0 := c.misses.Value(), c.estHist.Snapshot()
	root := c.serve(e.req, "serve", op)
	m1, h1 := c.misses.Value(), c.estHist.Snapshot()
	ok := ok2xx(c.rec.status)
	id := tr.begin("labeltree.parse", op, root)
	q, err := sum.ParseQuery(e.text)
	tr.end(id)
	if h1.Count > h0.Count {
		d := time.Duration((h1.SumSeconds - h0.SumSeconds) * 1e9)
		end := tr.spans[root].end
		tr.spans = append(tr.spans, span{name: "core.estimate", op: op, parent: root, start: end - d, end: end})
	}
	if err != nil || mirror == nil || m1 == m0 {
		return ok && err == nil
	}
	// A span of its own (no parent): it replays the estimate for its
	// work counts, and its time is not part of the served op's.
	id = tr.begin("core.estimate_trace", op, -1)
	_, t, err := mirror.EstimateWithTrace(q, core.MethodRecursiveVoting)
	tr.end(id)
	lc.estimates++
	lc.lookups += t.LatticeHits + t.LatticeMisses
	lc.augs += t.Augmentations
	return ok && err == nil
}

// query sends one /v1/query and replays, on the served summary, the
// parse, the execution, and the execution's planning and enumeration. The
// planning replay finds the fix-sized estimator's cache warm.
func (c *tracedClient) query(e *execQuery, op int32) bool {
	tr, lc := c.tr, c.lc
	root := c.serve(e.req, "serve", op)
	var a struct {
		Count       int64   `json:"count"`
		Degraded    bool    `json:"degraded"`
		Candidates  int64   `json:"candidates"`
		Calibration float64 `json:"calibration"`
	}
	if err := decodeJSON(c.rec, &a); err != nil {
		return false
	}
	lc.queries++
	lc.candidates += a.Candidates
	lc.matches += a.Count
	if a.Degraded {
		lc.exhausted++
	}
	if a.Calibration > 0 {
		lc.calibration = append(lc.calibration, a.Calibration)
	}
	sum := c.rep.c.Summary()
	id := tr.begin("core.parse", op, root)
	q, err := sum.ParseTwigQuery(e.text)
	tr.end(id)
	if err != nil {
		return false
	}
	ctx := context.Background()
	exec := tr.begin("core.execute", op, root)
	res, err := sum.ExecuteQueryContext(ctx, q, core.QueryOptions{Limit: e.limit, NodeBudget: queryNodeBudget})
	tr.end(exec)
	if err != nil {
		return false
	}
	id = tr.begin("planner.choose", op, exec)
	est, err := sum.Estimator(core.MethodFixSized)
	if err != nil {
		return false
	}
	plan := planner.Choose(q, est)
	tr.end(id)
	id = tr.begin("twigjoin.enumerate", op, exec)
	budget := int64(queryNodeBudget)
	ix := c.rep.c.TwigIndexer()
	var n int64
	for _, t := range c.rep.c.Trees() {
		st, err := twigjoin.EnumerateContext(ctx, ix.For(t), q, plan.Order, &budget, func(twigjoin.Match) bool { return true })
		n += st.Matches
		if err != nil {
			break
		}
	}
	tr.end(id)
	return !a.Degraded && a.Count == int64(e.count) && res.Count == a.Count && n == a.Count
}

// traceWrite POSTs one document and replays its parse and mine; the
// write's self time is the corpus add without them.
func (c *tracedClient) write(dict *labeltree.Dict, d *doc, op int32) bool {
	req, err := http.NewRequest(http.MethodPost, "/v1/docs/"+d.name, bytes.NewReader(d.xml))
	if err != nil {
		return false
	}
	root := c.serve(req, "serve.write", op)
	ok := ok2xx(c.rec.status)
	c.lc.writes++
	c.lc.xmlBytes += len(d.xml)
	p, b := replayParseMine(c.tr, c.lc, dict, d, op, root)
	return ok && p && b
}

// replayParseMine replays xmlparse.Parse and core.BuildContext on one
// document and accumulates their time and output.
func replayParseMine(tr *tracer, lc *layerCounts, dict *labeltree.Dict, d *doc, op, parent int32) (bool, bool) {
	start := time.Now()
	id := tr.begin("xmlparse", op, parent)
	t, err := xmlparse.Parse(bytes.NewReader(d.xml), dict, xmlparse.Options{})
	tr.end(id)
	lc.parseTime += time.Since(start)
	lc.parseBytes += len(d.xml)
	if err != nil {
		return false, false
	}
	start = time.Now()
	id = tr.begin("mine", op, parent)
	s, err := core.BuildContext(context.Background(), t, core.BuildOptions{K: 4})
	tr.end(id)
	lc.mineTime += time.Since(start)
	lc.mineElems += d.t.size()
	if err != nil {
		return true, false
	}
	lc.mined++
	lc.patterns += s.Patterns()
	return true, true
}

// newestSnapshotBytes is the size of the highest-numbered epoch snapshot.
func newestSnapshotBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "epoch-") && !strings.HasSuffix(e.Name(), ".meta") {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return 0
	}
	sort.Strings(names)
	fi, err := os.Stat(filepath.Join(dir, names[len(names)-1]))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// probeLattice times store probes for the first K nodes of every scored
// query: on the frozen TLAT snapshot the read-only replicas serve, and on
// ingest on the newest compressed epoch snapshot a restarted replica
// would serve.
func probeLattice(rep *replica, in *inputs) (float64, string, error) {
	dict := labeltree.NewDict()
	var store estimate.Store
	backend := "frozen"
	if rep.c.Ingesting() {
		backend = "compressed"
		var newest string
		entries, err := os.ReadDir(rep.dir)
		if err != nil {
			return 0, "", err
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tlcz") && e.Name() > newest {
				newest = e.Name()
			}
		}
		if newest == "" {
			return 0, "none", nil
		}
		c, err := lattice.OpenCompressedFile(filepath.Join(rep.dir, newest), dict)
		if err != nil {
			return 0, "", fmt.Errorf("probing %s: %w", newest, err)
		}
		defer c.Close()
		store = c
	} else {
		f, err := os.Open(filepath.Join(rep.dir, "summary.tlat"))
		if err != nil {
			return 0, "", err
		}
		defer f.Close()
		fr, err := lattice.ReadFrozen(f, dict)
		if err != nil {
			return 0, "", fmt.Errorf("probing summary.tlat: %w", err)
		}
		store = fr
	}
	var probes []labeltree.Pattern
	for _, qi := range in.errSet {
		q := in.est[qi].q
		p, err := labeltree.ParsePattern(q[:min(len(q), 4)].text(in.v), dict)
		if err != nil {
			return 0, "", err
		}
		probes = append(probes, p)
	}
	if len(probes) == 0 {
		return 0, backend, nil
	}
	start := time.Now()
	found := 0
	for r := 0; r < probeRounds; r++ {
		for _, p := range probes {
			if _, ok := store.Count(p); ok {
				found++
			}
		}
	}
	elapsed := time.Since(start)
	if found == 0 {
		return 0, "", fmt.Errorf("probing %s store: no probe found", backend)
	}
	return float64(elapsed.Nanoseconds()) / float64(probeRounds*len(probes)), backend, nil
}

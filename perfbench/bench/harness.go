package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"treelattice/internal/corpus"
	"treelattice/internal/obs"
	"treelattice/internal/serve"
)

// This file holds what every workload shares: set-up through the
// program's public calls, the in-process client, and the statistics.

// queryNodeBudget is the fixed /v1/query candidate budget. The query
// generator keeps every twig's worst-case candidate count below it (see
// candidateBound), so the budget is a guard that never ends a query.
const queryNodeBudget = 2_000_000

// setupRuns is how many times a run sets up its replica; setup_s is the
// median, and the last replica serves the timed phase.
const setupRuns = 3

// setupPauses reference pauses of setupPar chunks run before each set-up
// and after the last; AddXMLBatch parses and mines on both CPUs.
const (
	setupPauses = 10
	setupPar    = 2
)

// ingestOptions configures the ingest pipeline without timers: refreezes
// run only when the delta reaches ingestDeltaDocs documents, and the size
// and age watermarks sit far out of reach.
func ingestOptions() corpus.IngestOptions {
	return corpus.IngestOptions{
		RefreezeInterval: 0,
		MaxDeltaDocs:     ingestDeltaDocs,
		MaxDeltaBytes:    1 << 30,
		HardDeltaBytes:   1 << 31,
		MaxDeltaAge:      24 * time.Hour,
		Compress:         true,
	}
}

// replica is one set-up serving stack.
type replica struct {
	dir string
	c   *corpus.Corpus
	h   *serve.Handler
	reg *obs.Registry
}

// setupTiming is one set-up's wall time, with its stages when traced.
type setupTiming struct {
	total, open time.Duration
	stages      map[string]float64 // AddXMLBatch stage milliseconds, traced runs only
}

// setUp turns generated XML into a ready handler: it creates a corpus,
// adds every document in one batch, reopens the directory as a read-only
// replica, optionally enables ingest, and builds the handler. Only these
// program calls are timed. A traced set-up also keeps AddXMLBatch's stage
// timings.
func setUp(dir string, docs []*doc, ingest, trace bool) (*replica, setupTiming, error) {
	var st setupTiming
	batch := make([]corpus.BatchDoc, len(docs))
	for i, d := range docs {
		batch[i] = corpus.BatchDoc{Name: d.name, R: bytes.NewReader(d.xml)}
	}
	start := time.Now()
	c, err := corpus.Create(dir, corpus.Options{K: 4})
	if err != nil {
		return nil, st, err
	}
	if err := c.AddXMLBatch(context.Background(), batch); err != nil {
		return nil, st, fmt.Errorf("adding documents: %w", err)
	}
	openStart := time.Now()
	ro, err := corpus.OpenReadOnly(dir)
	if err != nil {
		return nil, st, fmt.Errorf("opening replica: %w", err)
	}
	st.open = time.Since(openStart)
	if ingest {
		if err := ro.EnableIngest(ingestOptions()); err != nil {
			return nil, st, fmt.Errorf("enabling ingest: %w", err)
		}
	}
	reg := obs.NewRegistry()
	h := serve.NewHandlerOptions(ro, serve.Options{
		Registry:   reg,
		Resilience: serve.ResilienceOptions{QueryNodeBudget: queryNodeBudget},
	})
	st.total = time.Since(start)
	if trace {
		st.stages = c.BuildTimings().Millis()
	}
	return &replica{dir: dir, c: ro, h: h, reg: reg}, st, nil
}

// close stops the replica's ingest pipeline, if any, and deletes its
// directory.
func (r *replica) close() error {
	err := r.c.DisableIngest()
	if rerr := os.RemoveAll(r.dir); err == nil {
		err = rerr
	}
	return err
}

// setUpMany sets up setupRuns replicas in fresh directories, keeps the
// last, and returns every set-up's timing. When hs is not nil, reference
// pauses run before each set-up and after the last.
func setUpMany(root string, docs []*doc, ingest, trace bool, hs *hostSpeed) (*replica, []setupTiming, error) {
	var times []setupTiming
	var last *replica
	pauses := func() {
		for k := 0; hs != nil && k < setupPauses; k++ {
			hs.pause(setupPar)
		}
	}
	for i := 0; i < setupRuns; i++ {
		if last != nil {
			if err := last.close(); err != nil {
				return nil, nil, err
			}
			last = nil
		}
		runtime.GC()
		pauses()
		rep, st, err := setUp(filepath.Join(root, fmt.Sprintf("setup-%d", i)), docs, ingest, trace)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, st)
		last = rep
	}
	pauses()
	return last, times, nil
}

// fsType names the filesystem holding dir, so the output says where the
// corpus directories lived.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// recorder is a reusable in-process http.ResponseWriter; one per client
// goroutine.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// serveOnce sends req straight to ServeHTTP and returns the elapsed time.
// The request is a shallow copy of tmpl, as Request.WithContext makes, so
// a template can be sent many times.
func serveOnce(h http.Handler, rec *recorder, tmpl *http.Request) time.Duration {
	req := new(http.Request)
	*req = *tmpl
	rec.reset()
	start := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(start)
}

// getRequest builds a GET template for path with the given parameters.
func getRequest(path string, params url.Values) *http.Request {
	req, err := http.NewRequest(http.MethodGet, path+"?"+params.Encode(), nil)
	if err != nil {
		panic(err) // the benchmark's own paths always parse
	}
	return req
}

func estimateRequest(q string) *http.Request {
	return getRequest("/v1/estimate", url.Values{"q": {q}})
}

// jsonNumber extracts the number stored under key in a flat JSON object
// without a full decode, so the client loop stays cheap.
func jsonNumber(body []byte, key string) (float64, bool) {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(pat):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] == '+' || rest[j] == '.' || rest[j] == 'e' || rest[j] == 'E' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	v, err := strconv.ParseFloat(string(rest[:j]), 64)
	return v, err == nil
}

func ok2xx(status int) bool { return status >= 200 && status < 300 }

// latencies are per-op samples in nanoseconds.
type latencies []int64

func (l latencies) sum() int64 {
	var t int64
	for _, v := range l {
		t += v
	}
	return t
}

// quantile is the exact nearest-rank order statistic: the smallest sample
// with at least a share p of the samples at or below it. It also returns
// how many samples lie above it.
func (l latencies) quantile(p float64) (ms float64, above int) {
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return float64(s[rank-1]) / 1e6, len(s) - rank
}

// median of float samples (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sanityBound is the paper's §5.1 floor for the error denominator:
// max(10, 10th percentile of the true counts).
func sanityBound(truth []float64) float64 {
	s := append([]float64(nil), truth...)
	sort.Float64s(s)
	p10 := s[int(0.1*float64(len(s)-1))]
	return math.Max(10, p10)
}

// meanAbsError is the §5.1 mean absolute error with sanity bound.
func meanAbsError(truth, est []float64) float64 {
	sb := sanityBound(truth)
	sum := 0.0
	for i := range truth {
		sum += math.Abs(truth[i]-est[i]) / math.Max(sb, truth[i])
	}
	return sum / float64(len(truth))
}

// decodeJSON decodes a 2xx response body into v.
func decodeJSON(rec *recorder, v any) error {
	if !ok2xx(rec.status) {
		return fmt.Errorf("status %d: %s", rec.status, bytes.TrimSpace(rec.body.Bytes()))
	}
	return json.Unmarshal(rec.body.Bytes(), v)
}

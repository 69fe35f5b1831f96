// Package loadgen drives estimation traffic against a TreeLattice
// deployment and measures what it achieves. It closes the loop the
// accuracy experiments leave open: Section 5 of the paper evaluates what
// the estimates are worth; loadgen measures what they cost to serve.
//
// A load run has three ingredients:
//
//   - A Workload: a positive/negative query mix sampled from real
//     documents through internal/workload, pre-rendered to both pattern
//     and twig-text form so either target kind can consume it without
//     per-request work. Generation is seeded — the same seed reproduces
//     the same mix run-to-run.
//   - A Target: where requests go. EstimatorTarget calls an in-process
//     estimator (measures the estimation engine alone); HTTPTarget drives
//     a live /v1/estimate endpoint (measures the full serving path).
//   - Options: closed- or open-loop arrival control, concurrency, warmup,
//     and a fixed-duration or fixed-count stopping rule.
//
// Closed loop (the default) keeps Concurrency workers saturated: each
// issues its next request as soon as the previous one returns, measuring
// maximum sustainable throughput. Open loop (OpenLoopQPS > 0) schedules
// arrivals on a fixed clock regardless of completions, the way real user
// traffic behaves, so queueing delay shows up in the latencies rather
// than being absorbed by backpressure; arrivals that would exceed
// MaxOutstanding in-flight requests are counted as Dropped instead of
// silently coordinating with the server.
//
// Latencies are recorded into an obs fixed-bucket histogram, so driver
// quantiles and server-side /v1/metrics quantiles are directly
// comparable.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/obs"
	"treelattice/internal/twigjoin"
	"treelattice/internal/workload"
)

// Item is one issuable query.
type Item struct {
	// Pattern is the parsed query, consumed by in-process targets.
	Pattern labeltree.Pattern
	// Text is the twig syntax rendering, consumed by HTTP targets.
	Text string
	// Negative marks a zero-selectivity query.
	Negative bool
}

// Workload is a generated query mix.
type Workload struct {
	Items []Item
	// Positives and Negatives count the mix composition.
	Positives, Negatives int
}

// WorkloadOptions configures mix generation.
type WorkloadOptions struct {
	// Sizes lists query sizes to sample; default {3, 4, 5}.
	Sizes []int
	// PerSize is the number of distinct positive queries per size per
	// document; default 20.
	PerSize int
	// NegativeFraction is the target share of zero-selectivity queries in
	// the mix (0..1); default 0.
	NegativeFraction float64
	// Seed makes generation deterministic, including the final shuffle.
	Seed int64
}

func (o *WorkloadOptions) defaults() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{3, 4, 5}
	}
	if o.PerSize <= 0 {
		o.PerSize = 20
	}
}

// BuildWorkload samples a query mix from the given documents (all sharing
// dict). Sizes a document cannot produce are skipped for that document;
// the call fails only if no document yields any query.
func BuildWorkload(trees []*labeltree.Tree, dict *labeltree.Dict, opts WorkloadOptions) (*Workload, error) {
	opts.defaults()
	if len(trees) == 0 {
		return nil, fmt.Errorf("loadgen: no documents to sample queries from")
	}
	var pos, neg []Item
	for i, t := range trees {
		wopts := workload.Options{
			Sizes:   opts.Sizes,
			PerSize: opts.PerSize,
			// Offset the seed per document so identical documents do not
			// contribute identical mixes.
			Seed: opts.Seed + int64(i)*1_000_003,
		}
		p, err := workload.Positive(t, wopts)
		if err != nil {
			return nil, fmt.Errorf("loadgen: sampling positive workload: %w", err)
		}
		// Iterate sizes in order: map iteration would make the mix depend
		// on runtime map randomization, defeating the seed.
		for _, size := range wopts.Sizes {
			for _, q := range p[size] {
				pos = append(pos, Item{Pattern: q.Pattern, Text: q.Pattern.String(dict)})
			}
		}
		if opts.NegativeFraction > 0 {
			n, err := workload.Negative(t, p, wopts)
			if err != nil {
				return nil, fmt.Errorf("loadgen: sampling negative workload: %w", err)
			}
			for _, size := range wopts.Sizes {
				for _, q := range n[size] {
					neg = append(neg, Item{Pattern: q.Pattern, Text: q.Pattern.String(dict), Negative: true})
				}
			}
		}
	}
	if len(pos) == 0 {
		return nil, fmt.Errorf("loadgen: documents produced no positive queries at sizes %v", opts.Sizes)
	}
	// Trim negatives to the requested share of the final mix:
	// frac = n / (n + len(pos))  ⇒  n = frac/(1-frac) · len(pos).
	if f := opts.NegativeFraction; f > 0 && f < 1 {
		want := int(f / (1 - f) * float64(len(pos)))
		if want < len(neg) {
			neg = neg[:want]
		}
	}
	items := append(pos, neg...)
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return &Workload{Items: items, Positives: len(pos), Negatives: len(neg)}, nil
}

// Accuracy summarizes estimate quality against exact Definition-1 match
// counts on a workload subsample. QError is the standard multiplicative
// metric max(est/exact, exact/est) with +1 smoothing so zero-selectivity
// queries still score; 1.0 is a perfect estimate.
type Accuracy struct {
	Queries       int     `json:"queries"`
	MeanQError    float64 `json:"mean_q_error"`
	MedianQError  float64 `json:"median_q_error"`
	P95QError     float64 `json:"p95_q_error"`
	MaxQError     float64 `json:"max_q_error"`
	MeanAbsRelErr float64 `json:"mean_abs_rel_err"`
	// Checked and Divergent count ensemble cross-check verdicts among the
	// measured queries; zero for single-method estimators.
	Checked   int `json:"ensemble_checked,omitempty"`
	Divergent int `json:"ensemble_divergent,omitempty"`
	// BudgetExhausted counts queries the method could not answer within
	// its budget (scored queries exclude them — the matrix reports what
	// the method achieves when it answers, and how often it cannot).
	BudgetExhausted int `json:"budget_exhausted,omitempty"`
}

// qError is the smoothed multiplicative error between an estimate and the
// exact count.
func qError(est, exact float64) float64 {
	a, b := est+1, exact+1
	if a < b {
		a, b = b, a
	}
	return a / b
}

// MeasureAccuracy estimates up to maxQueries workload items under method
// (strictly — no degradation, so the numbers describe the method itself)
// and scores each against its exact match count over trees. maxQueries
// bounds the exact-count bill, which dwarfs estimation cost on large
// documents; <= 0 measures the whole workload.
func MeasureAccuracy(ctx context.Context, sum *core.Summary, trees []*labeltree.Tree, w *Workload, method core.Method, maxQueries int) (*Accuracy, error) {
	if w == nil || len(w.Items) == 0 {
		return nil, fmt.Errorf("loadgen: empty workload")
	}
	n := len(w.Items)
	if maxQueries > 0 && maxQueries < n {
		n = maxQueries
	}
	idx := make([]*twigjoin.Index, len(trees))
	for i, t := range trees {
		idx[i] = twigjoin.NewIndex(t)
	}
	acc := &Accuracy{}
	qerrs := make([]float64, 0, n)
	var sumQ, sumRel float64
	for _, it := range w.Items[:n] {
		de, err := sum.EstimateStrict(ctx, it.Pattern, method)
		if errors.Is(err, core.ErrBudgetExhausted) {
			acc.BudgetExhausted++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("loadgen: estimating %q: %w", it.Text, err)
		}
		counter, err := twigjoin.NewCounter(twigjoin.MustQuery(it.Pattern, nil), nil)
		if err != nil {
			return nil, fmt.Errorf("loadgen: counting %q: %w", it.Text, err)
		}
		var exact int64
		for _, x := range idx {
			st, err := counter.CountContext(ctx, x, nil)
			if err != nil {
				return nil, err
			}
			exact += st.Matches
		}
		qe := qError(de.Estimate, float64(exact))
		qerrs = append(qerrs, qe)
		sumQ += qe
		sumRel += math.Abs(de.Estimate-float64(exact)) / (float64(exact) + 1)
		if de.Checked {
			acc.Checked++
			if de.Divergent {
				acc.Divergent++
			}
		}
	}
	scored := len(qerrs)
	acc.Queries = scored
	if scored == 0 {
		return acc, nil
	}
	sort.Float64s(qerrs)
	acc.MeanQError = sumQ / float64(scored)
	acc.MedianQError = qerrs[scored/2]
	acc.P95QError = qerrs[min(scored-1, scored*95/100)]
	acc.MaxQError = qerrs[scored-1]
	acc.MeanAbsRelErr = sumRel / float64(scored)
	return acc, nil
}

// Target executes one request. Implementations must be safe for
// concurrent Issue calls.
type Target interface {
	Issue(it Item) error
	Name() string
}

// BatchTarget is a Target that can carry several queries in one request.
// Options.BatchSize > 1 requires the target to implement it.
type BatchTarget interface {
	Target
	IssueBatch(items []Item) error
}

// EstimatorTarget drives an in-process estimator — the estimation engine
// with no HTTP, parsing, or cache in the way.
type EstimatorTarget struct {
	est estimate.Estimator
}

// NewEstimatorTarget resolves method over sum.
func NewEstimatorTarget(sum *core.Summary, method core.Method) (*EstimatorTarget, error) {
	est, err := sum.Estimator(method)
	if err != nil {
		return nil, err
	}
	return &EstimatorTarget{est: est}, nil
}

// Issue estimates the item's pattern.
func (t *EstimatorTarget) Issue(it Item) error {
	t.est.Estimate(it.Pattern)
	return nil
}

// Name identifies the target in reports.
func (t *EstimatorTarget) Name() string { return "inprocess:" + t.est.Name() }

// HTTPTarget drives a live query endpoint (default /v1/estimate).
type HTTPTarget struct {
	base   string
	path   string
	method string
	extra  string
	client *http.Client
	accept map[int]bool
}

// NewHTTPTarget points at a server's base URL (e.g. "http://127.0.0.1:8357").
// A nil client uses a dedicated one with sensible pooling for load
// generation.
func NewHTTPTarget(base string, method core.Method, client *http.Client) *HTTPTarget {
	if client == nil {
		transport := http.DefaultTransport.(*http.Transport).Clone()
		// The default per-host idle cap (2) would force new connections
		// under concurrency and measure TCP setup, not the server.
		transport.MaxIdleConnsPerHost = 256
		client = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	}
	return &HTTPTarget{base: base, path: "/v1/estimate", method: string(method), client: client}
}

// WithPath retargets Issue at a different query endpoint taking the same
// q/method parameters (e.g. "/v1/exact" for overload-testing the expensive
// ground-truth scan, or "/v1/query" for a twig-execution mix). Returns the
// target for chaining.
func (t *HTTPTarget) WithPath(path string) *HTTPTarget {
	t.path = path
	return t
}

// WithParam appends a fixed query parameter to every issued request —
// e.g. WithParam("count", "1") turns a /v1/query mix count-only so the
// measured path is planning + execution, not match serialization.
// Returns the target for chaining.
func (t *HTTPTarget) WithParam(key, value string) *HTTPTarget {
	t.extra += "&" + url.QueryEscape(key) + "=" + url.QueryEscape(value)
	return t
}

// WithAcceptStatus marks extra HTTP statuses as non-errors (e.g. 429 when
// deliberately driving a server past its admission limit: shedding is the
// behavior under test, not a failure). 200 is always accepted.
func (t *HTTPTarget) WithAcceptStatus(codes ...int) *HTTPTarget {
	if t.accept == nil {
		t.accept = make(map[int]bool, len(codes))
	}
	for _, c := range codes {
		t.accept[c] = true
	}
	return t
}

// Issue GETs the configured endpoint for the item and drains the response.
func (t *HTTPTarget) Issue(it Item) error {
	u := t.base + t.path + "?q=" + url.QueryEscape(it.Text)
	if t.method != "" {
		u += "&method=" + url.QueryEscape(t.method)
	}
	u += t.extra
	resp, err := t.client.Get(u)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && !t.accept[resp.StatusCode] {
		return fmt.Errorf("loadgen: %s returned %d", u, resp.StatusCode)
	}
	return nil
}

// Name identifies the target in reports.
func (t *HTTPTarget) Name() string { return "http:" + t.base }

// HTTPBatchTarget drives POST /v1/estimate/batch: one request carries a
// whole batch, so the driver measures the amortization the batch endpoint
// buys — one HTTP round trip and one admission slot per BatchSize queries,
// plus the shared sub-estimate cache across the batch's worker pool.
type HTTPBatchTarget struct {
	base   string
	method string
	client *http.Client
}

// NewHTTPBatchTarget points at a server's base URL. A nil client uses the
// same pooled defaults as NewHTTPTarget.
func NewHTTPBatchTarget(base string, method core.Method, client *http.Client) *HTTPBatchTarget {
	if client == nil {
		transport := http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConnsPerHost = 256
		client = &http.Client{Transport: transport, Timeout: 30 * time.Second}
	}
	return &HTTPBatchTarget{base: base, method: string(method), client: client}
}

// Issue sends a single-query batch, satisfying Target so the same target
// can serve both modes of a single/batched comparison run.
func (t *HTTPBatchTarget) Issue(it Item) error { return t.IssueBatch([]Item{it}) }

// IssueBatch POSTs the items as one batch request and drains the response.
// Per-item error envelopes inside a 200 response are the server doing its
// job, not a driver-visible failure; only transport errors and non-200
// statuses count.
func (t *HTTPBatchTarget) IssueBatch(items []Item) error {
	var body bytes.Buffer
	body.WriteString(`{"queries":[`)
	for i, it := range items {
		if i > 0 {
			body.WriteByte(',')
		}
		b, _ := json.Marshal(it.Text)
		body.Write(b)
	}
	body.WriteString(`]`)
	if t.method != "" {
		body.WriteString(`,"method":`)
		b, _ := json.Marshal(t.method)
		body.Write(b)
	}
	body.WriteString(`}`)
	resp, err := t.client.Post(t.base+"/v1/estimate/batch", "application/json", &body)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: batch returned %d", resp.StatusCode)
	}
	return nil
}

// Name identifies the target in reports.
func (t *HTTPBatchTarget) Name() string { return "http-batch:" + t.base }

// RoundRobin fans Issue calls across targets in rotation, so one driver
// measures a fleet of replicas as a unit: the dispatch order is a global
// atomic counter, which spreads closed-loop workers evenly across the
// replicas regardless of which worker issues next.
func RoundRobin(targets ...Target) Target {
	if len(targets) == 1 {
		return targets[0]
	}
	return &roundRobinTarget{targets: targets}
}

type roundRobinTarget struct {
	targets []Target
	next    atomic.Uint64
}

// Issue dispatches to the next target in rotation.
func (t *roundRobinTarget) Issue(it Item) error {
	n := t.next.Add(1) - 1
	return t.targets[n%uint64(len(t.targets))].Issue(it)
}

// Name identifies the fleet in reports.
func (t *roundRobinTarget) Name() string {
	return fmt.Sprintf("roundrobin(%d):%s", len(t.targets), t.targets[0].Name())
}

// Options configures a load run.
type Options struct {
	// Concurrency is the worker count (closed loop) or the in-flight
	// budget's unit (open loop). Default GOMAXPROCS.
	Concurrency int
	// Duration stops the measured run after a fixed wall-clock time.
	// Exactly one of Duration and Requests must be set.
	Duration time.Duration
	// Requests stops the measured run after a fixed request count
	// (closed loop only).
	Requests int
	// Warmup runs the closed loop unmeasured for this long first, letting
	// caches fill and the scheduler settle.
	Warmup time.Duration
	// OpenLoopQPS, when positive, switches to open-loop arrivals at this
	// rate. Requires Duration.
	OpenLoopQPS float64
	// MaxOutstanding caps in-flight open-loop requests; arrivals beyond
	// it count as Dropped. Default 32 × Concurrency.
	MaxOutstanding int
	// BatchSize, when > 1, carries this many queries per request (closed
	// loop only; the target must implement BatchTarget). Issued and
	// AchievedQPS still count individual queries, so single and batched
	// runs compare directly; each latency observation covers one batch.
	BatchSize int
}

// Result is the outcome of a load run.
type Result struct {
	Target         string                `json:"target"`
	Mode           string                `json:"mode"` // "closed" | "open"
	Concurrency    int                   `json:"concurrency"`
	BatchSize      int                   `json:"batch_size,omitempty"`
	Issued         uint64                `json:"issued"`
	Errors         uint64                `json:"errors"`
	Dropped        uint64                `json:"dropped,omitempty"`
	ElapsedSeconds float64               `json:"elapsed_seconds"`
	AchievedQPS    float64               `json:"achieved_qps"`
	TargetQPS      float64               `json:"target_qps,omitempty"`
	Latency        obs.HistogramSnapshot `json:"latency"`
}

// Run executes a load run and reports the measured window (warmup
// excluded). The context cancels the run early; whatever was measured by
// then is still returned.
func Run(ctx context.Context, target Target, w *Workload, opts Options) (*Result, error) {
	if w == nil || len(w.Items) == 0 {
		return nil, fmt.Errorf("loadgen: empty workload")
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}
	if (opts.Duration > 0) == (opts.Requests > 0) {
		return nil, fmt.Errorf("loadgen: exactly one of Duration and Requests must be set")
	}
	if opts.OpenLoopQPS > 0 {
		if opts.Duration <= 0 {
			return nil, fmt.Errorf("loadgen: open loop requires Duration")
		}
		if opts.MaxOutstanding <= 0 {
			opts.MaxOutstanding = 32 * opts.Concurrency
		}
		if opts.BatchSize > 1 {
			return nil, fmt.Errorf("loadgen: batched runs are closed loop only")
		}
	}
	if opts.BatchSize > 1 {
		if _, ok := target.(BatchTarget); !ok {
			return nil, fmt.Errorf("loadgen: target %s does not support batching", target.Name())
		}
	}

	if opts.Warmup > 0 {
		warmCtx, cancel := context.WithTimeout(ctx, opts.Warmup)
		runClosed(warmCtx, target, w, opts.Concurrency, 0, opts.BatchSize, nil, nil, nil)
		cancel()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}

	hist := obs.NewHistogram(nil)
	var issued, errs, dropped atomic.Uint64
	res := &Result{Target: target.Name(), Concurrency: opts.Concurrency}
	if opts.BatchSize > 1 {
		res.BatchSize = opts.BatchSize
	}
	start := time.Now()
	if opts.OpenLoopQPS > 0 {
		res.Mode = "open"
		res.TargetQPS = opts.OpenLoopQPS
		runCtx, cancel := context.WithTimeout(ctx, opts.Duration)
		runOpen(runCtx, target, w, opts, hist, &issued, &errs, &dropped)
		cancel()
	} else {
		res.Mode = "closed"
		runCtx := ctx
		var cancel context.CancelFunc = func() {}
		if opts.Duration > 0 {
			runCtx, cancel = context.WithTimeout(ctx, opts.Duration)
		}
		runClosed(runCtx, target, w, opts.Concurrency, opts.Requests, opts.BatchSize, hist, &issued, &errs)
		cancel()
	}
	elapsed := time.Since(start)

	res.Issued = issued.Load()
	res.Errors = errs.Load()
	res.Dropped = dropped.Load()
	res.ElapsedSeconds = elapsed.Seconds()
	if elapsed > 0 {
		res.AchievedQPS = float64(res.Issued) / elapsed.Seconds()
	}
	res.Latency = hist.Snapshot()
	return res, nil
}

// runClosed keeps workers issuing back-to-back until the context is done
// or maxQueries (when positive) queries have been issued. batch > 1
// claims that many queries per request through the target's BatchTarget
// side. A nil hist skips recording (warmup). Counters count queries;
// latency observations cover one request (a whole batch).
func runClosed(ctx context.Context, target Target, w *Workload, workers, maxQueries, batch int, hist *obs.Histogram, issued, errs *atomic.Uint64) {
	bt, isBatch := target.(BatchTarget)
	if batch <= 1 || !isBatch {
		batch = 1
	}
	var next atomic.Uint64
	var wg sync.WaitGroup
	items := w.Items
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker scratch: batches wrap around the workload ring, so
			// the claimed range is copied out instead of sliced.
			var scratch []Item
			if batch > 1 {
				scratch = make([]Item, 0, batch)
			}
			for {
				if ctx.Err() != nil {
					return
				}
				end := next.Add(uint64(batch))
				first := end - uint64(batch)
				if maxQueries > 0 {
					if first >= uint64(maxQueries) {
						return
					}
					if end > uint64(maxQueries) {
						end = uint64(maxQueries)
					}
				}
				n := end - first
				var err error
				start := time.Now()
				if batch == 1 {
					err = target.Issue(items[first%uint64(len(items))])
				} else {
					scratch = scratch[:0]
					for q := first; q < end; q++ {
						scratch = append(scratch, items[q%uint64(len(items))])
					}
					err = bt.IssueBatch(scratch)
				}
				if hist != nil {
					hist.ObserveSince(start)
					issued.Add(n)
					if err != nil {
						errs.Add(n)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// runOpen schedules arrivals at a fixed rate until the context is done,
// spawning each request into a bounded in-flight pool.
func runOpen(ctx context.Context, target Target, w *Workload, opts Options, hist *obs.Histogram, issued, errs, dropped *atomic.Uint64) {
	interval := time.Duration(float64(time.Second) / opts.OpenLoopQPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	sem := make(chan struct{}, opts.MaxOutstanding)
	var wg sync.WaitGroup
	items := w.Items
	var n uint64
	nextArrival := time.Now()
	for {
		if ctx.Err() != nil {
			break
		}
		now := time.Now()
		if now.Before(nextArrival) {
			wait := nextArrival.Sub(now)
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
			continue
		}
		nextArrival = nextArrival.Add(interval)
		it := items[n%uint64(len(items))]
		n++
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(it Item) {
				defer wg.Done()
				defer func() { <-sem }()
				start := time.Now()
				err := target.Issue(it)
				hist.ObserveSince(start)
				issued.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}(it)
		default:
			// In-flight budget exhausted: a real open-loop client would
			// queue unboundedly; we record the overload instead.
			dropped.Add(1)
		}
	}
	wg.Wait()
}

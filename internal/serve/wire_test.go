package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
)

// newSampleHandler serves a K = 3 corpus holding doc as "sample".
func newSampleHandler(t testing.TB, opts Options) *Handler {
	t.Helper()
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddXMLContext(context.Background(), "sample", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	return NewHandlerOptions(c, opts)
}

// TestResponseBytes pins the exact bytes of the answers the request
// routes encode from typed structs, and of the error envelope: each
// literal is what a map of the same keys encodes to, so clients see the
// field order, omitted keys, number formatting, HTML escaping and
// trailing newline of a key-sorted JSON object.
func TestResponseBytes(t *testing.T) {
	h := newSampleHandler(t, Options{Resilience: ResilienceOptions{TenantQuota: 1}})
	expired := newSampleHandler(t, Options{Resilience: ResilienceOptions{EstimateBudget: time.Nanosecond}})
	for _, tc := range []struct {
		h                  *Handler
		verb, target, body string
		status             int
		want               string
	}{
		{h, "GET", "/v1/estimate?q=laptop(brand,price)", "", 200,
			`{"estimate":2,"method":"recursive+voting","query":"laptop(brand,price)"}`},
		{h, "GET", "/v1/estimate?q=laptop(brand,price)&method=markov", "", 200,
			`{"estimate":2,"method":"markov","query":"laptop(brand,price)"}`},
		{h, "GET", "/v1/estimate?q=desktop(brand)", "", 200,
			`{"estimate":0,"query":"desktop(brand)"}`},
		{expired, "GET", "/v1/estimate?q=laptop(brand,price)&method=recursive", "", 200,
			`{"degraded":true,"estimate":2,"method":"fix-sized","query":"laptop(brand,price)"}`},
		{h, "GET", "/v1/t/default/estimate?q=laptop(brand,price)", "", 200,
			`{"estimate":2,"method":"recursive+voting","query":"laptop(brand,price)","tenant":"default"}`},
		{h, "GET", "/v1/t/default/estimate?q=desktop", "", 200,
			`{"estimate":0,"query":"desktop","tenant":"default"}`},
		{h, "GET", "/v1/exact?q=laptop(brand,price)", "", 200,
			`{"count":2,"query":"laptop(brand,price)"}`},
		{h, "GET", "/v1/exact?q=desktop", "", 200,
			`{"count":0,"query":"desktop"}`},
		{h, "POST", "/v1/docs/other", "<a><b/></a>", 201,
			`{"added":"other"}`},
		{h, "DELETE", "/v1/docs/other", "", 200,
			`{"removed":"other"}`},
		{h, "GET", "/v1/estimate?q=a<b", "", 400,
			`{"code":"bad_query","error":"treelattice: bad twig query: labeltree: trailing input \"\u003cb\" at offset 1"}`},
		{h, "GET", "/v1/estimate?q=laptop&method=bogus", "", 400,
			`{"code":"unknown_method","error":"treelattice: unknown estimation method: \"bogus\" (registered: fix-sized, markov, recursive, recursive+voting, treesketches)"}`},
		{h, "GET", "/v1/estimate", "", 400,
			`{"code":"bad_query","error":"missing q parameter"}`},
		{h, "GET", "/v1/nope", "", 404,
			`{"code":"not_found","error":"no such endpoint"}`},
		{h, "PUT", "/v1/estimate", "", 405,
			`{"code":"method_not_allowed","error":"use GET"}`},
		// Routes that already answered typed structs share the encoder.
		{h, "GET", "/v1/query?q=//laptop(brand)&limit=1", "", 200,
			`{"query":"//laptop(brand)","count":2,"matches":[{"doc":"sample","nodes":[2,3]}],"truncated":true,"docs_scanned":1,"candidates":5,"plan":[0,1],"plan_method":"fix-sized","predicted_candidates":4,"calibration":1.25}`},
		{h, "GET", "/v1/explain?q=computer(laptops(laptop(brand,price)))", "", 200,
			`{"query":"computer(laptops(laptop(brand,price)))","estimate":2,"trace":{"MemoHits":14,"LatticeHits":7,"LatticeMisses":4,"Reconstructions":0,"Augmentations":8,"MaxDepth":2},"spread_lo":2,"spread_hi":2}`},
	} {
		req := httptest.NewRequest(tc.verb, tc.target, strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		tc.h.ServeHTTP(w, req)
		if got := w.Body.String(); w.Code != tc.status || got != tc.want+"\n" {
			t.Errorf("%s %s: %d %q\nwant %d %q", tc.verb, tc.target, w.Code, got, tc.status, tc.want+"\n")
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", tc.verb, tc.target, ct)
		}
	}

	// A tenant over its quota is shed with the envelope and Retry-After.
	if !h.quota.Acquire(DefaultTenant) {
		t.Fatal("priming quota")
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/t/default/estimate?q=laptop", nil))
	const shed = `{"code":"shed","error":"tenant over its admission quota; retry later"}` + "\n"
	if w.Code != http.StatusTooManyRequests || w.Body.String() != shed || w.Header().Get("Retry-After") != "1" {
		t.Errorf("shed: %d %q Retry-After %q", w.Code, w.Body.String(), w.Header().Get("Retry-After"))
	}
}

// reusedWriter is a ResponseWriter that one caller resets between
// requests, as a server's connection reuses its response state.
type reusedWriter struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (w *reusedWriter) Header() http.Header { return w.hdr }

func (w *reusedWriter) WriteHeader(status int) { w.status = status }

func (w *reusedWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *reusedWriter) reset() {
	clear(w.hdr)
	w.status = 0
	w.body.Reset()
}

// estimateAllocsBefore is the allocation count of one warm /v1/estimate
// through ServeHTTP when the route decoded its query string twice and
// encoded a map.
const estimateAllocsBefore = 31

// TestEstimateAllocs: a warm estimate, answered from the summary's
// answer cache, allocates at most half as often as when the route
// decoded its parameters twice and encoded a map.
func TestEstimateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled encoders under -race")
	}
	h := newSampleHandler(t, Options{})
	tmpl := httptest.NewRequest("GET", "/v1/estimate?q=computer%28laptops%28laptop%28brand%2Cprice%29%29%29", nil)
	w := &reusedWriter{hdr: make(http.Header)}
	serve := func() {
		req := new(http.Request)
		*req = *tmpl
		w.reset()
		h.ServeHTTP(w, req)
	}
	serve()
	const want = `{"estimate":2,"method":"recursive+voting","query":"computer(laptops(laptop(brand,price)))"}` + "\n"
	if w.status != http.StatusOK || w.body.String() != want {
		t.Fatalf("warm-up: %d %q", w.status, w.body.String())
	}
	n := testing.AllocsPerRun(200, serve)
	t.Logf("%v allocations per warm estimate", n)
	if n > estimateAllocsBefore/2.0 {
		t.Fatalf("warm estimate allocates %v times, want at most %v", n, estimateAllocsBefore/2.0)
	}
}

// TestStarEstimatesSaturate: the estimate of a star of many same-label
// leaves overflows float64 partway through every method's arithmetic:
// the two recursive methods from 100 leaves on, the other three from
// 150. Each method saturates at math.MaxFloat64 instead of answering
// +Inf or NaN, so every route answers 200 with a finite number, repeats
// from the answer cache included. The recursive methods and explain stop
// at 100 leaves: at 200 the voting recursion holds every level's leaf
// pairs at once, seconds and over a gigabyte per call.
func TestStarEstimatesSaturate(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	wide := "<r>" + strings.Repeat("<a/>", 400) + "</r>"
	if err := c.AddXMLContext(context.Background(), "wide", strings.NewReader(wide)); err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c)
	for _, leaves := range []int{50, 100, 150, 200} {
		star := "r(" + strings.TrimSuffix(strings.Repeat("a,", leaves), ",") + ")"
		methods := core.RegisteredMethods()
		if leaves > 100 {
			methods = []core.Method{core.MethodFixSized, core.MethodMarkov, core.MethodTreeSketch}
		}
		for _, m := range methods {
			what := fmt.Sprintf("%d leaves, %s", leaves, m)
			for range 2 { // the repeat answers from the answer cache
				out := serveOK(t, h, "GET", "/v1/estimate?q="+star+"&method="+url.QueryEscape(string(m)), "")
				finite(t, what, out["estimate"])
			}
			out := serveOK(t, h, "POST", "/v1/estimate/batch", `{"method":"`+string(m)+`","queries":["`+star+`","r(a,a)"]}`)
			for i, item := range out["results"].([]any) {
				finite(t, fmt.Sprintf("%s, batch item %d", what, i), item.(map[string]any)["estimate"])
			}
		}
		if leaves <= 100 {
			out := serveOK(t, h, "GET", "/v1/explain?q="+star, "")
			for _, key := range []string{"estimate", "spread_lo", "spread_hi"} {
				finite(t, fmt.Sprintf("%d leaves, explain %s", leaves, key), out[key])
			}
		}
	}
}

// TestExplainUnboundedSpread: a decomposition-choice interval is
// unbounded above when some choices estimate a pair's common part at
// zero and others do not, and /v1/explain reports that spread_hi as
// math.MaxFloat64, a number JSON can carry.
func TestExplainUnboundedSpread(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	const d = `<l2><l0><l0><l2/><l1/></l0><l0><l1/><l2/><l2/></l0><l1><l1/></l1><l2/><l2/><l1/></l0>` +
		`<l0><l1/></l0><l0><l1><l1/><l2/></l1></l0></l2>`
	if err := c.AddXMLContext(context.Background(), "d", strings.NewReader(d)); err != nil {
		t.Fatal(err)
	}
	out := serveOK(t, NewHandler(c), "GET", "/v1/explain?q=l0(l0(l0,l1(l2)),l2)", "")
	if out["spread_lo"] != 0.0 || out["spread_hi"] != math.MaxFloat64 {
		t.Fatalf("spread [%v, %v], want [0, %v]", out["spread_lo"], out["spread_hi"], math.MaxFloat64)
	}
}

// TestWriteJSONUnencodable: a value encoding/json rejects answers 500
// with the internal envelope, not a success status and an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, math.NaN())
	const want = `{"code":"internal","error":"encoding response: json: unsupported value: NaN"}` + "\n"
	if w.Code != http.StatusInternalServerError || w.Body.String() != want {
		t.Fatalf("%d %q, want 500 %q", w.Code, w.Body.String(), want)
	}
}

// serveOK sends one request to h and decodes its 200 answer.
func serveOK(t *testing.T, h http.Handler, verb, target, body string) map[string]any {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(verb, target, strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); w.Code != http.StatusOK || err != nil {
		t.Fatalf("%s %s: %d %q", verb, target, w.Code, w.Body.String())
	}
	return out
}

// finite fails t unless v is a finite non-negative JSON number.
func finite(t *testing.T, what string, v any) {
	t.Helper()
	if f, ok := v.(float64); !ok || math.IsInf(f, 0) || math.IsNaN(f) || f < 0 {
		t.Fatalf("%s = %v, want a finite non-negative number", what, v)
	}
}

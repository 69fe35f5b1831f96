package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/corpus"
	"treelattice/internal/datagen"
	"treelattice/internal/labeltree"
	"treelattice/internal/xmlparse"
)

// BenchmarkServeEstimate times a served /v1/estimate on a warm answer
// cache, whole and layer by layer, over one XMark document of about
// 1,000 elements at K = 4. The warm row sends the request through
// ServeHTTP with a reused ResponseWriter, as perfbench's clients do; the
// decode, parse, estimate and encode rows time its steps alone: the
// query-string decode, Summary.ParseQuery, the method-table call (an
// answer-cache hit) and the response encode.
func BenchmarkServeEstimate(b *testing.B) {
	ctx := context.Background()
	dict := labeltree.NewDict()
	t, err := datagen.Generate(datagen.Config{Profile: datagen.XMark, Scale: 1000, Seed: 1}, dict)
	if err != nil {
		b.Fatal(err)
	}
	var x bytes.Buffer
	if err := xmlparse.Write(&x, t); err != nil {
		b.Fatal(err)
	}
	c, err := corpus.Create(b.TempDir(), corpus.Options{K: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.AddXMLContext(ctx, "xmark", &x); err != nil {
		b.Fatal(err)
	}
	h := NewHandler(c)

	const qs = "open_auction(bidder(date,increase),itemref)"
	tmpl := httptest.NewRequest("GET", "/v1/estimate?q="+url.QueryEscape(qs), nil)
	w := &reusedWriter{hdr: make(http.Header)}
	serve := func() {
		req := new(http.Request)
		*req = *tmpl
		w.reset()
		h.ServeHTTP(w, req)
	}
	serve() // fills the answer cache
	if w.status != http.StatusOK {
		b.Fatalf("warm-up: %d %s", w.status, w.body.String())
	}
	sum := c.Summary()
	q, err := sum.ParseQuery(qs)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sum.EstimateDegradable(ctx, q, core.MethodRecursiveVoting)
	if err != nil || !res.Cached {
		b.Fatalf("estimate: %+v, %v; want an answer-cache hit", res, err)
	}
	resp := &estimateResponse{Estimate: res.Estimate, Method: string(res.Method), Query: qs}

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			serve()
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			params := tmpl.URL.Query()
			benchParams = params.Get("q") + params.Get("method")
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPattern, _ = sum.ParseQuery(qs)
		}
	})
	b.Run("estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchResult, _ = sum.EstimateDegradable(ctx, q, core.MethodRecursiveVoting)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.reset()
			writeJSON(w, resp)
		}
	})
}

// Sinks keep the compiler from dropping the timed calls.
var (
	benchParams  string
	benchPattern labeltree.Pattern
	benchResult  core.DegradedEstimate
)

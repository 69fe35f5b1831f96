package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"treelattice/internal/corpus"
)

// FuzzQueryEndpoint throws arbitrary query strings and parameter
// combinations at /v1/query, both as GET parameters and as a raw POST
// body. The invariants: no panic, never a 5xx, and every response body
// is the JSON envelope. The parser guards (maxParseNodes,
// maxParseDepth) are what keep adversarial inputs like deep
// "a(a(a(..." nests from exhausting the stack.
func FuzzQueryEndpoint(f *testing.F) {
	c, err := corpus.Create(f.TempDir(), corpus.Options{K: 3})
	if err != nil {
		f.Fatal(err)
	}
	if err := c.AddXMLContext(context.Background(), "sample", strings.NewReader(doc)); err != nil {
		f.Fatal(err)
	}
	h := NewHandler(c)

	f.Add("//laptop(brand,price)", uint8(1), false, false)
	f.Add("laptop", uint8(0), true, true)
	f.Add("//a(b,//c(d))", uint8(200), false, true)
	f.Add("a((", uint8(3), true, false)
	f.Add(strings.Repeat("a(", 64), uint8(0), false, false)
	f.Add(`{"q":"//laptop","limit":5}`, uint8(0), false, false)
	f.Add("//"+bigGroup, uint8(0), false, true)

	f.Fuzz(func(t *testing.T, q string, limit uint8, naive, count bool) {
		v := url.Values{"q": {q}}
		if limit > 0 {
			v.Set("limit", strconv.Itoa(int(limit)))
		}
		if naive {
			v.Set("naive", "1")
		}
		if count {
			v.Set("count", "1")
		}
		for _, req := range []*httptest.ResponseRecorder{
			serveOnce(h, "GET", "/v1/query?"+v.Encode(), ""),
			serveOnce(h, "POST", "/v1/query", q),
		} {
			if req.Code >= 500 {
				t.Fatalf("5xx for q=%q: %d %s", q, req.Code, req.Body.String())
			}
			var out map[string]any
			if err := json.Unmarshal(req.Body.Bytes(), &out); err != nil {
				t.Fatalf("non-JSON response for q=%q: %v: %s", q, err, req.Body.String())
			}
		}
	})
}

func serveOnce(h *Handler, method, target, body string) *httptest.ResponseRecorder {
	var r *strings.Reader
	if body == "" {
		r = strings.NewReader("")
	} else {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

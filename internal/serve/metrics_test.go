package serve

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"treelattice/internal/corpus"
	"treelattice/internal/fleet"
)

// metricTable reads the metric-name table of DESIGN.md §8: the first
// cell of every row of the section's one table, with the <route>,
// <method> and <tenant> placeholders turned into patterns.
func metricTable(t *testing.T) map[string]*regexp.Regexp {
	t.Helper()
	f, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	placeholders := strings.NewReplacer(
		"<route>", "[a-z_]+",
		"<method>", "[a-z+-]+",
		"<tenant>", "[a-z0-9._-]+",
	)
	rows := make(map[string]*regexp.Regexp)
	inSection := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, "## 8. ")
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
		rows[name] = regexp.MustCompile("^" + placeholders.Replace(regexp.QuoteMeta(name)) + "$")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §8 has no metric table")
	}
	return rows
}

// TestMetricNamesDocumented keeps DESIGN.md §8's metric table complete
// and current. A handler with every optional part switched on — ingest,
// a fleet tenant, an admission limit and a tenant quota — gets one
// request on every route; then every name /v1/metrics exports must
// match a table row, and every row must match an exported name.
func TestMetricNamesDocumented(t *testing.T) {
	c, err := corpus.Create(t.TempDir(), corpus.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIngest(corpus.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	defer c.DisableIngest()
	root := t.TempDir()
	writeFleetTenant(t, root, "acme")
	h := NewHandlerOptions(c, Options{
		Fleet:      fleet.NewRegistry(fleet.RegistryOptions{Root: root}),
		Resilience: ResilienceOptions{AdmissionLimit: 4, TenantQuota: 2},
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	for _, req := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/docs/sample", doc, http.StatusCreated},
		{"POST", "/v1/docs/spare", doc, http.StatusCreated},
		{"GET", "/v1/estimate?q=laptops(laptop(brand,price))", "", http.StatusOK},
		{"POST", "/v1/estimate/batch", `{"queries": ["laptop(brand)"]}`, http.StatusOK},
		{"GET", "/v1/exact?q=laptop(brand)", "", http.StatusOK},
		{"GET", "/v1/query?q=laptop(brand)", "", http.StatusOK},
		{"POST", "/v1/query", `{"q": "laptop(price)"}`, http.StatusOK},
		{"GET", "/v1/explain?q=laptop(brand)", "", http.StatusOK},
		{"GET", "/v1/methods", "", http.StatusOK},
		{"GET", "/v1/stats", "", http.StatusOK},
		{"GET", "/v1/metrics", "", http.StatusOK},
		{"DELETE", "/v1/docs/spare", "", http.StatusOK},
		{"GET", "/v1/t/acme/estimate?q=l0(l1)", "", http.StatusOK},
		{"GET", "/v1/t/default/query?q=laptop(brand)", "", http.StatusOK},
		{"GET", "/v1/t/acme/stats", "", http.StatusOK},
		{"POST", "/v1/t/acme/reload", "", http.StatusOK},
		{"GET", "/v1/tenants", "", http.StatusOK},
		{"GET", "/v1/healthz", "", http.StatusOK},
		{"GET", "/v1/readyz", "", http.StatusOK},
		{"GET", "/v1/nosuch", "", http.StatusNotFound},
	} {
		if code, out := do(t, req.method, srv.URL+req.path, req.body); code != req.want {
			t.Fatalf("%s %s: %d %v, want %d", req.method, req.path, code, out, req.want)
		}
	}

	s := decodeMetrics(t, srv.URL)
	// Every route saw traffic, so the names below are all the routes'.
	for route, m := range h.routes {
		if m.requests.Value() == 0 {
			t.Fatalf("route %q got no request; add one above", route)
		}
	}
	var exported []string
	for name := range s.Counters {
		exported = append(exported, name)
	}
	for name := range s.Gauges {
		exported = append(exported, name)
	}
	for name := range s.Histograms {
		exported = append(exported, name)
	}
	sort.Strings(exported)
	rows := metricTable(t)
	used := make(map[string]bool, len(rows))
	for _, name := range exported {
		documented := false
		for row, re := range rows {
			if re.MatchString(name) {
				documented = true
				used[row] = true
			}
		}
		if !documented {
			t.Errorf("/v1/metrics exports %q, which no row of DESIGN.md §8's metric table matches", name)
		}
	}
	for row := range rows {
		if !used[row] {
			t.Errorf("DESIGN.md §8's metric table lists %q, which /v1/metrics does not export", row)
		}
	}
}

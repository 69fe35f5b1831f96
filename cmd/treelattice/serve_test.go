package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"treelattice/internal/corpus"
	"treelattice/internal/serve"
)

// TestServeGracefulShutdown drives the serve lifecycle: start, answer
// traffic, cancel (as a signal would), and drain cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := runCorpus([]string{"init", "-dir", dir, "-k", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	c, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var out safeBuffer
	done := make(chan error, 1)
	go func() {
		done <- serveCorpus(ctx, c, "127.0.0.1:0", "127.0.0.1:0", serve.Options{}, defaultTuning(), &out)
	}()

	base := waitForAddr(t, &out, "serving corpus on ")
	debug := waitForAddr(t, &out, "debug endpoints (pprof, expvar, metrics) on ")

	resp, err := http.Post(base+"/v1/docs/sample", "application/xml", strings.NewReader(testDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/estimate?q=laptop(brand,price)")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}

	// The debug listener answers on its own port: metrics JSON and pprof.
	for _, path := range []string{"/debug/metrics", "/debug/vars", "/debug/pprof/cmdline"} {
		resp, err = http.Get(debug + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
	// The traffic port does NOT expose pprof.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof on traffic port: status %d, want 404", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "draining in-flight requests") {
		t.Errorf("missing drain log: %q", out.String())
	}
	// The listener is really gone.
	if _, err := http.Get(base + "/v1/stats"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// waitForAddr polls the server log for a line with the given prefix and
// returns the http base URL it names.
func waitForAddr(t *testing.T, out *safeBuffer, prefix string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server never logged %q: %q", prefix, out.String())
	return ""
}

// safeBuffer is a bytes.Buffer safe for the cross-goroutine read the
// shutdown test performs.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

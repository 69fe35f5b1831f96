package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"treelattice/internal/corpus"
	"treelattice/internal/serve"
)

// estimateClients is the closed-loop client count of the estimate
// workload; it matches the 2 CPUs the benchmark was calibrated on.
const estimateClients = 2

// readsPerWrite is how many estimates the ingest reader sends per
// acknowledged write. One: every read is the first on its epoch, so it
// pays the epoch's preparation, and the reader leaves the writer most of
// the second CPU. With eight, the reads doubled the write tail (p90 16 ms
// against 8 ms, p99 30 ms against 15 ms) and made it swing between runs.
const readsPerWrite = 1

// Reference pauses (see hostSpeed) come every so many primary ops, about
// five times a nominal second, with one chunk per busy goroutine: both
// clients on estimate, the writer and the reader on ingest.
const (
	refPausesPerSec    = 5
	estimatePauseEvery = estimateOpsPerSec / refPausesPerSec // even, so op i stays with client i mod 2
	queryPauseEvery    = queryOpsPerSec / refPausesPerSec
	ingestPauseEvery   = ingestDocsPerSec / refPausesPerSec
	ingestPar          = 2
)

// samples holds per-op outcomes, allocated before the heap baseline so
// the benchmark's own bookkeeping stays out of heap_mb.
type samples struct {
	lat    latencies
	status []int16
	value  []float64 // estimates, or query counts

	readLat    latencies // ingest reader
	reads      int
	readFailed int64
}

func newSamples(in *inputs, cfg config) *samples {
	n := len(in.estSeq)
	switch cfg.workload {
	case "query":
		n = len(in.execSeq)
	case "ingest":
		n = len(in.writes)
	}
	s := &samples{lat: make(latencies, n), status: make([]int16, n)}
	switch cfg.workload {
	case "estimate":
		s.value = make([]float64, n)
	case "ingest":
		s.readLat = make(latencies, len(in.writes)*readsPerWrite)
	}
	return s
}

// timedEstimate runs the estimate workload: estimateClients closed-loop
// clients split one fixed sequence of /v1/estimate requests, op i going to
// client i mod estimateClients. The sequence runs in segments of
// estimatePauseEvery ops with a reference pause before each; the time is
// the segments' total.
func timedEstimate(rep *replica, in *inputs, s *samples, hs *hostSpeed) time.Duration {
	var recs [estimateClients]*recorder
	for c := range recs {
		recs[c] = newRecorder()
	}
	var took time.Duration
	for lo := 0; lo < len(in.estSeq); lo += estimatePauseEvery {
		hs.pause(estimateClients)
		hi := min(lo+estimatePauseEvery, len(in.estSeq))
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < estimateClients; c++ {
			wg.Add(1)
			go func(rec *recorder, first int) {
				defer wg.Done()
				for i := first; i < hi; i += estimateClients {
					s.lat[i] = int64(serveOnce(rep.h, rec, in.est[in.estSeq[i]].req))
					s.status[i] = int16(rec.status)
					s.value[i], _ = jsonNumber(rec.body.Bytes(), "estimate")
				}
			}(recs[c], lo+c)
		}
		wg.Wait()
		took += time.Since(start)
	}
	return took
}

// timedQuery runs the query workload: one closed-loop client sends every
// distinct /v1/query request equally often.
func timedQuery(rep *replica, in *inputs, s *samples, hs *hostSpeed) (time.Duration, []string) {
	rec := newRecorder()
	var bad []string
	var paused time.Duration
	start := time.Now()
	for i, qi := range in.execSeq {
		if i%queryPauseEvery == 0 {
			paused += hs.pause(1)
		}
		e := &in.exec[qi]
		s.lat[i] = int64(serveOnce(rep.h, rec, e.req))
		s.status[i] = int16(rec.status)
		if !ok2xx(rec.status) {
			continue // a refusal or error: failed by its status
		}
		// A degraded partial count is a failed op; any other mismatch is
		// also a wrong answer, which makes the run incorrect.
		switch msg, degraded := checkQueryAnswer(e, rec); {
		case degraded:
			s.status[i] = statusDegraded
		case msg != "":
			s.status[i] = statusWrong
			if len(bad) < 5 {
				bad = append(bad, msg)
			}
		}
	}
	return time.Since(start) - paused, bad
}

// queryAnswer is the part of a /v1/query response the check reads.
type queryAnswer struct {
	Count     int64             `json:"count"`
	Matches   []json.RawMessage `json:"matches"`
	Degraded  bool              `json:"degraded"`
	Truncated bool              `json:"truncated"`
}

// Statuses recorded for ops that reached the handler but failed a check.
const (
	statusWrong    = -1 // wrong or inconsistent answer
	statusDegraded = -2 // /v1/query ran out of node budget
)

// checkQueryAnswer compares one 2xx /v1/query response with the
// reference count. It returns a description of the first mismatch, or "",
// and whether the answer was a degraded partial count.
func checkQueryAnswer(e *execQuery, rec *recorder) (string, bool) {
	var a queryAnswer
	if err := json.Unmarshal(rec.body.Bytes(), &a); err != nil {
		return fmt.Sprintf("%s: bad response: %v", e.text, err), false
	}
	want := int64(e.count)
	switch {
	case a.Degraded:
		return fmt.Sprintf("%s: degraded partial count %d", e.text, a.Count), true
	case a.Count != want:
		return fmt.Sprintf("%s: count %d, reference %d", e.text, a.Count, want), false
	case len(a.Matches) != int(min(want, int64(e.limit))):
		return fmt.Sprintf("%s: %d matches for limit %d of %d", e.text, len(a.Matches), e.limit, want), false
	case a.Truncated != (e.limit > 0 && want > int64(e.limit)):
		return fmt.Sprintf("%s: truncated=%v for limit %d of %d", e.text, a.Truncated, e.limit, want), false
	}
	return "", false
}

// timedIngest runs the ingest workload: one writer POSTs the fixed
// document sequence back to back, and one reader sends readsPerWrite
// estimates per acknowledged write, beside the next write. The reads are a
// fixed count too: a reader looping flat out would take a whole CPU from
// the writer, the refreezer and the collector, and its count and the
// write tail would swing with how the two CPUs happen to be shared. Every
// ingestPauseEvery writes, the writer waits for the reader to catch up and
// runs a reference pause; the time excludes those waits.
func timedIngest(rep *replica, in *inputs, s *samples, hs *hostSpeed) time.Duration {
	acks := make(chan struct{}, len(in.writes)) // one send per write, so the writer never blocks on it
	var pending, wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec := newRecorder()
		for range acks {
			for j := 0; j < readsPerWrite; j++ {
				req := in.est[in.estSeq[s.reads%len(in.estSeq)]].req
				s.readLat[s.reads] = int64(serveOnce(rep.h, rec, req))
				if !ok2xx(rec.status) {
					s.readFailed++
				}
				s.reads++
			}
			pending.Done()
		}
	}()
	rec := newRecorder()
	var paused time.Duration
	start := time.Now()
	for i, d := range in.writes {
		if i%ingestPauseEvery == 0 {
			t := time.Now()
			pending.Wait()
			hs.pause(ingestPar)
			paused += time.Since(t)
		}
		req, err := http.NewRequest(http.MethodPost, "/v1/docs/"+d.name, bytes.NewReader(d.xml))
		if err != nil {
			panic(err) // generated names always form a valid path
		}
		s.lat[i] = int64(serveOnce(rep.h, rec, req))
		s.status[i] = int16(rec.status)
		pending.Add(1)
		acks <- struct{}{}
	}
	wall := time.Since(start) - paused
	close(acks)
	wg.Wait()
	return wall
}

// countFailed counts ops with a non-2xx status (429 refusals included)
// or a failed answer check.
func countFailed(status []int16) int64 {
	var n int64
	for _, st := range status {
		if !ok2xx(int(st)) {
			n++
		}
	}
	return n
}

// inconsistentEstimates marks as failed every estimate op whose answer
// differs from the first answer the run gave for that query.
func inconsistentEstimates(in *inputs, s *samples) (first map[int32]float64, n int64) {
	first = make(map[int32]float64)
	for i, qi := range in.estSeq {
		if !ok2xx(int(s.status[i])) {
			continue
		}
		v, seen := first[qi]
		if !seen {
			first[qi] = s.value[i]
			continue
		}
		if math.Float64bits(v) != math.Float64bits(s.value[i]) {
			s.status[i] = statusWrong
			n++
		}
	}
	return first, n
}

// scoreEstimates sends the est_err subset through ServeHTTP after the
// timed phase and scores the answers against the reference counts. An
// answer that differs from one the timed phase gave is an error.
func scoreEstimates(rep *replica, in *inputs, first map[int32]float64) (float64, error) {
	rec := newRecorder()
	est := make([]float64, len(in.errSet))
	for i, qi := range in.errSet {
		serveOnce(rep.h, rec, in.est[qi].req)
		v, ok := jsonNumber(rec.body.Bytes(), "estimate")
		if !ok2xx(rec.status) || !ok {
			return 0, fmt.Errorf("scoring %s: status %d: %s", in.est[qi].text, rec.status, strings.TrimSpace(rec.body.String()))
		}
		if f, seen := first[int32(qi)]; seen && math.Float64bits(f) != math.Float64bits(v) {
			return 0, fmt.Errorf("scoring %s: estimate %v, timed phase gave %v", in.est[qi].text, v, f)
		}
		est[i] = v
	}
	return meanAbsError(in.truth, est), nil
}

// checkDurability reopens the ingest directory with OpenReadOnly, as a
// restarted replica would, while the live replica is still running (no
// graceful close). Every acknowledged document must be listed, and a
// fixed probe set must estimate bit-identically on both replicas.
func checkDurability(rep *replica, in *inputs, report map[string]any) error {
	if err := waitRefreezeIdle(rep.h); err != nil {
		return err
	}
	ro, err := corpus.OpenReadOnly(rep.dir)
	if err != nil {
		return fmt.Errorf("durability: reopening: %w", err)
	}
	h := serve.NewHandlerOptions(ro, serve.Options{})
	rec := newRecorder()
	serveOnce(h, rec, getRequest("/v1/stats", nil))
	var stats struct {
		Documents []string `json:"documents"`
		Backend   string   `json:"backend"`
	}
	if err := decodeJSON(rec, &stats); err != nil {
		return fmt.Errorf("durability: stats: %w", err)
	}
	listed := make(map[string]bool, len(stats.Documents))
	for _, n := range stats.Documents {
		listed[n] = true
	}
	var missing []string
	for _, d := range append(append([]*doc(nil), in.docs...), in.writes...) {
		if !listed[d.name] {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("durability: %d acknowledged documents missing after reopen, first %s", len(missing), missing[0])
	}
	live := newRecorder()
	for i := 0; i < min(probeSetSize, len(in.est)); i++ {
		serveOnce(rep.h, live, in.est[i].req)
		serveOnce(h, rec, in.est[i].req)
		a, aok := jsonNumber(live.body.Bytes(), "estimate")
		b, bok := jsonNumber(rec.body.Bytes(), "estimate")
		if !aok || !bok || a != b {
			return fmt.Errorf("durability: %s estimates %s live and %s reopened", in.est[i].text,
				strings.TrimSpace(live.body.String()), strings.TrimSpace(rec.body.String()))
		}
	}
	report["reopened_backend"] = stats.Backend
	report["durability_probes"] = min(probeSetSize, len(in.est))
	return nil
}

// waitRefreezeIdle polls /v1/stats until no refreeze is in flight and the
// delta is below the refreeze watermark, twice in a row. A refreeze that
// commits while OpenReadOnly loads the previous epoch prunes the snapshot
// out from under it; a restarted replica never races a live predecessor
// that way, so the check waits it out.
func waitRefreezeIdle(h http.Handler) error {
	rec := newRecorder()
	req := getRequest("/v1/stats", nil)
	idle := 0
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		serveOnce(h, rec, req)
		var st struct {
			Ingest struct {
				DeltaDocs        int    `json:"delta_docs"`
				RefreezeAttempts uint64 `json:"refreeze_attempts"`
				RefreezeFailures uint64 `json:"refreeze_failures"`
				Refreezes        uint64 `json:"refreezes"`
			} `json:"ingest"`
		}
		if err := decodeJSON(rec, &st); err != nil {
			return fmt.Errorf("durability: stats: %w", err)
		}
		g := st.Ingest
		if g.RefreezeAttempts != g.Refreezes+g.RefreezeFailures || g.DeltaDocs >= ingestDeltaDocs {
			idle = 0
			continue
		}
		if idle++; idle == 2 {
			return nil
		}
	}
	return fmt.Errorf("durability: refreezer still busy after 60s")
}

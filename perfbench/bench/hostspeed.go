package main

import (
	"sync"
	"time"
)

// The benchmark's VM shares its host, and the host's speed drifts by tens
// of per cent over minutes; every figure of a run moves with it. So each
// timing metric is reported at a reference speed. A run interleaves short
// chunks of a fixed reference load with its work, at points where the
// program is idle, and scales its measured times by refChunkNominal over
// the median chunk time.
//
// The reference load is the benchmark's own document generator on a fixed
// seed: allocation-heavy Go code building trees and strings, like the
// program's parsing and mining. Its chunks tracked the drift of repeated
// set-ups over four minutes (correlation 0.87 between 12-second medians),
// where cache-resident compute loops, which allocate nothing, stayed flat
// while the set-ups slowed by 30 %. A program change cannot alter the
// reference, so it moves the scaled times as it moves the raw ones.

// Reference chunk: refDocs generated documents of refDocElems elements.
const (
	refDocs     = 4
	refDocElems = 1500
	refSeed     = 0x5EED
)

// refChunkNominal is the median chunk time on the 2-vCPU x86-64 VM the
// benchmark was calibrated on; it only fixes the unit of the scaled times.
const refChunkNominal = 1800 * time.Microsecond

// hostSpeed runs reference chunks and keeps their times.
type hostSpeed struct {
	mu     sync.Mutex
	chunks []time.Duration
}

func newHostSpeed() *hostSpeed { return &hostSpeed{chunks: make([]time.Duration, 0, 1024)} }

// chunk runs one reference chunk and records its wall time.
func (hs *hostSpeed) chunk() {
	start := time.Now()
	genDocs(newVocab(), newRNG(refSeed, "reference"), "ref", refDocs, refDocElems)
	d := time.Since(start)
	hs.mu.Lock()
	hs.chunks = append(hs.chunks, d)
	hs.mu.Unlock()
}

// pause runs par chunks at once, one per goroutine, as many as the
// workload keeps busy, and returns the pause's wall time.
func (hs *hostSpeed) pause(par int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for p := 1; p < par; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs.chunk()
		}()
	}
	hs.chunk()
	wg.Wait()
	return time.Since(start)
}

// factor is the median chunk time since the last call over
// refChunkNominal: above 1 when the host ran slower than the reference
// speed. It is 1 when no chunk ran.
func (hs *hostSpeed) factor() float64 {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if len(hs.chunks) == 0 {
		return 1
	}
	xs := make([]float64, len(hs.chunks))
	for i, d := range hs.chunks {
		xs[i] = float64(d)
	}
	hs.chunks = hs.chunks[:0]
	return median(xs) / float64(refChunkNominal)
}

// hostScaling is the multiplier that takes a metric measured at the given
// host speed factors to the reference speed, or 0 for a metric that is not
// a time or a rate.
func hostScaling(name string, setupFactor, timedFactor float64) float64 {
	switch name {
	case "setup_s":
		return 1 / setupFactor
	case "p50_ms", "p99_ms", "read_p50_ms", "read_p99_ms":
		return 1 / timedFactor
	case "ops_per_s", "read_ops_per_s":
		return timedFactor
	}
	return 0
}

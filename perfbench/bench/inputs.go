package main

import (
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
)

// Sizes at scale 1. A run's op count is its --seconds times the nominal
// rate below: runs stop on a count, never on a clock, so two runs of one
// program do identical work.
const (
	corpusDocs      = 48    // set-up documents, cycling the four shapes
	docElems        = 5000  // elements per set-up document
	estPoolSize     = 12288 // distinct estimate queries: 3x the qcache's 4096 entries
	estZeroShare    = 0.25
	zipfExponent    = 1.0
	errSetSize      = 1500 // distinct queries scored for est_err
	execPoolSize    = 3960 // distinct /v1/query requests, each sent three times in a 20 s run
	execZeroShare   = 1.0 / 3
	execDescShare   = 0.4 // twigs with an internal "//" edge
	execLimitShare  = 0.2 // requests with a small limit instead of count=1
	ingestDocElems  = 250 // elements per written document
	ingestDeltaDocs = 64  // refreeze watermark, in delta documents
	probeSetSize    = 200 // durability probes

	estimateOpsPerSec = 160000
	queryOpsPerSec    = 550
	ingestDocsPerSec  = 170
)

// estQuery is one estimator query (child edges only, anchored anywhere).
type estQuery struct {
	q    twig
	text string
	zero bool
	req  *http.Request
}

// execQuery is one /v1/query request with its reference answer.
type execQuery struct {
	q     twig
	text  string
	zero  bool
	limit int // 0 sends count=1
	count float64
	bound float64
	req   *http.Request
}

// inputs is everything a run sends, generated from the seed before set-up.
type inputs struct {
	v      *vocab
	docs   []*doc // set-up corpus
	labels [][]int32

	est    []estQuery
	estSeq []int32 // estimate or ingest-reader op order, indices into est

	// errSet indexes est; truth holds its reference counts over the
	// corpus the answers are scored against.
	errSet []int
	truth  []float64

	exec    []execQuery
	execSeq []int32

	writes []*doc // ingest writer sequence
}

func scaled(n int, scale float64) int { return max(1, int(math.Round(float64(n)*scale))) }

// genInputs builds a workload's inputs from the seed alone.
func genInputs(workload string, seed uint64, seconds int, scale float64) *inputs {
	in := &inputs{v: newVocab()}
	nDocs := max(scaled(corpusDocs, scale), len(shapeNames))
	in.docs = genDocs(in.v, newRNG(seed, "corpus"), "base", nDocs, scaled(docElems, scale))
	in.labels = shapeLabels(in.docs)

	scored := in.docs
	switch workload {
	case "estimate":
		in.est = genEstimatePool(newRNG(seed, "estimate"), in, scaled(estPoolSize, scale))
		in.estSeq = zipfSequence(newRNG(seed, "estimate-order"), len(in.est), seconds*scaled(estimateOpsPerSec, scale))
	case "query":
		// Enough of the estimate pool for errSetSize positive queries: the
		// same queries the estimate workload scores.
		in.est = genEstimatePool(newRNG(seed, "estimate"), in, int(math.Ceil(float64(scaled(errSetSize, scale))/(1-estZeroShare))))
		in.exec = genExecPool(newRNG(seed, "query"), in, scaled(execPoolSize, scale))
		in.execSeq = roundRobin(newRNG(seed, "query-order"), len(in.exec), seconds*scaled(queryOpsPerSec, scale))
	case "ingest":
		in.est = genEstimatePool(newRNG(seed, "estimate"), in, scaled(estPoolSize, scale))
		// The reader sends every pool query once per pass, in shuffled
		// order, so no read repeats one of the last twelve thousand: every
		// read runs cache-cold, whatever the reader's speed against the
		// writer's. With Zipf repeats, the share of qcache hits would
		// depend on how many reads fit between two epochs.
		in.estSeq = roundRobin(newRNG(seed, "estimate-order"), len(in.est), len(in.est))
		in.writes = genDocs(in.v, newRNG(seed, "writes"), "ing", seconds*scaled(ingestDocsPerSec, scale), scaled(ingestDocElems, scale))
		scored = append(append([]*doc(nil), in.docs...), in.writes...)
	}
	for i := 0; i < len(in.est) && len(in.errSet) < scaled(errSetSize, scale); i++ {
		if !in.est[i].zero {
			in.errSet = append(in.errSet, i)
		}
	}
	in.truth = make([]float64, len(in.errSet))
	parallel(len(in.errSet), func(k int) { in.truth[k] = refCount(scored, in.est[in.errSet[k]].q) })
	return in
}

// dropTrees releases the documents' trees once the inputs, the report and
// the reference counts are built; an untraced run sends only their XML.
// Kept, the trees (over a million nodes on ingest) were pointer-rich
// objects that every collection during set-up and the timed phase had to
// mark.
func (in *inputs) dropTrees() {
	for _, d := range in.docs {
		d.t = nil
	}
	for _, d := range in.writes {
		d.t = nil
	}
}

// parallel runs f(0) … f(n-1) on one goroutine per CPU and waits for
// them; each f writes only its own result. On ingest, counting the scored
// queries over every written document was most of a run's input
// generation.
func parallel(n int, f func(k int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < n; k += workers {
				f(k)
			}
		}(w)
	}
	wg.Wait()
}

// genEstimatePool draws n distinct estimator queries of 3–8 nodes, a share
// estZeroShare of them relabelled to zero selectivity.
func genEstimatePool(r *rng, in *inputs, n int) []estQuery {
	seen := make(map[string]bool)
	var out []estQuery
	zeros := 0
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		zero := float64(zeros) < estZeroShare*float64(len(out)+1)
		d := in.docs[r.intn(len(in.docs))]
		q, ok := sampleTwig(r, d.t, r.uniform(3, 8), 0, false)
		if !ok {
			continue
		}
		if zero {
			if q = perturb(r, q, in.labels[d.shape], false); q == nil || refMatches(in.docs, q) {
				continue
			}
		}
		if seen[q.key()] {
			continue
		}
		seen[q.key()] = true
		if zero {
			zeros++
		}
		text := q.text(in.v)
		out = append(out, estQuery{q: q, text: text, zero: zero, req: estimateRequest(text)})
	}
	return out
}

// boundClasses stratify the query pool by the reference worst-case
// candidate count: class i holds twigs with bound below boundClasses[i]
// (and at or above the previous limit), and takes a fixed share of the
// pool, close to the share a plain draw gives. With the mix of cheap and
// combinatorial twigs fixed, the total work of a run, and so the
// throughput and tail, barely depends on the seed.
var boundClasses = []struct {
	limit float64
	share float64
}{
	{3e3, 0.045}, {1e4, 0.11}, {3.16e4, 0.30}, {1e5, 0.265},
	{3.16e5, 0.155}, {1e6, 0.08}, {queryNodeBudget, 0.022},
}

func boundClass(bound float64) int {
	for i, c := range boundClasses {
		if bound < c.limit {
			return i
		}
	}
	return -1
}

// genExecPool draws n distinct branching twigs of 4–8 nodes for /v1/query,
// each with its reference count, stratified by boundClasses. Twigs whose
// worst-case candidate count could reach the node budget are redrawn, so
// no request is cut short.
func genExecPool(r *rng, in *inputs, n int) []execQuery {
	seen := make(map[string]bool)
	var out []execQuery
	zeros, descs := 0, 0
	// Rounded class quotas; the largest class takes the remainder, so the
	// pool always has exactly n twigs.
	quota := make([]int, len(boundClasses))
	left, largest := n, 0
	for i, c := range boundClasses {
		quota[i] = int(math.Round(c.share * float64(n)))
		left -= quota[i]
		if c.share > boundClasses[largest].share {
			largest = i
		}
	}
	quota[largest] += left
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		zero := float64(zeros) < execZeroShare*float64(len(out)+1)
		desc := float64(descs) < execDescShare*float64(len(out)+1)
		descP := 0.0
		if desc {
			descP = 0.5
		}
		d := in.docs[r.intn(len(in.docs))]
		q, ok := sampleTwig(r, d.t, r.uniform(4, 8), descP, desc)
		if !ok || !q.branching() || desc != q.hasDesc() {
			continue
		}
		if zero {
			if q = perturb(r, q, in.labels[d.shape], desc); q == nil {
				continue
			}
		}
		if seen[q.key()] || zero == refMatches(in.docs, q) {
			continue
		}
		bound := candidateBound(in.docs, q)
		class := boundClass(bound)
		if class < 0 || quota[class] == 0 {
			continue
		}
		quota[class]--
		seen[q.key()] = true
		if zero {
			zeros++
		}
		if desc {
			descs++
		}
		e := execQuery{q: q, text: "//" + q.text(in.v), zero: zero, count: refCount(in.docs, q), bound: bound}
		params := url.Values{"q": {e.text}}
		if r.maybe(execLimitShare) {
			e.limit = r.uniform(1, 5)
			params.Set("limit", strconv.Itoa(e.limit))
		} else {
			params.Set("count", "1")
		}
		e.req = getRequest("/v1/query", params)
		out = append(out, e)
	}
	return out
}

// zipfSequence draws n pool indices with Zipf popularity over pool order.
func zipfSequence(r *rng, pool, n int) []int32 {
	z := newZipf(pool, zipfExponent)
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(z.draw(r))
	}
	return seq
}

// roundRobin sends every pool entry equally often: at least n ops in whole
// rounds, each round in a fresh shuffled order.
func roundRobin(r *rng, pool, n int) []int32 {
	rounds := max(1, (n+pool-1)/pool)
	seq := make([]int32, 0, rounds*pool)
	round := make([]int32, pool)
	for i := range round {
		round[i] = int32(i)
	}
	for k := 0; k < rounds; k++ {
		r.shuffle(pool, func(i, j int) { round[i], round[j] = round[j], round[i] })
		seq = append(seq, round...)
	}
	return seq
}

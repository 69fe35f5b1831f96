# Stdlib-only Go module; no codegen. `make check` is the full gate the
# test suite is expected to pass, including the race detector (the
# concurrent build pipeline and the HTTP server are exercised under -race),
# a short pass over each fuzz target's seed corpus, and the benchmark
# module in perfbench/ (its own go.mod), so an API change that breaks the
# benchmark's build fails here rather than in a benchmark run. `make bench` is
# the serving-path load benchmark — deliberately outside the check gate:
# it measures, it does not pass/fail. `make fuzz` runs the coverage-guided
# fuzzers for FUZZTIME each (longer runs: make fuzz FUZZTIME=5m).

GO ?= go
FUZZTIME ?= 10s

# Fuzz targets live next to the parsers they attack; each entry is
# "package:Target" (go test allows one -fuzz pattern per package run).
FUZZ_TARGETS = \
	./internal/xmlparse:FuzzParse \
	./internal/labeltree:FuzzQuerySyntax \
	./internal/labeltree:FuzzKeyDecode \
	./internal/lattice:FuzzFrozenLoad \
	./internal/lattice:FuzzCompressedLoad \
	./internal/lattice:FuzzDeltaMerge \
	./internal/fleet:FuzzTenantName \
	./internal/twigjoin:FuzzCount \
	./internal/serve:FuzzQueryEndpoint

.PHONY: check vet build test race fuzz fuzz-short perfbench bench benchcore microbench

check: vet build race fuzz-short perfbench

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run=NONE -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
	done

# fuzz-short replays each target's seed corpus only (no new input
# generation): fast enough for the check gate, still catches regressions
# on every previously interesting input checked into testdata.
fuzz-short:
	$(GO) test -run='^Fuzz' ./internal/xmlparse ./internal/labeltree ./internal/lattice ./internal/fleet ./internal/twigjoin ./internal/serve

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench seeds the serving perf trajectory: generate a synthetic corpus,
# start an in-process server, drive a short closed-loop load run —
# single-query, then the same workload batched 32 queries per POST
# /v1/estimate/batch request — and write BENCH_serve.json (achieved
# QPS, p50/p95/p99, server-side metrics, batched vs single throughput).
# -methods all additionally sweeps every registered estimator in-process,
# adding the accuracy×latency matrix (q-error vs exact counts, per-method
# throughput, ensemble divergence counts) to the report. -tenants drives
# the workload through the multi-tenant /v1/t routes. -backends reloads the summary through both snapshot
# forms (frozen TLAT, compressed TLCZ) and adds the size×throughput
# comparison. -ingest runs a mixed read/write pass — readers estimating
# while a writer streams documents through the zero-downtime ingest
# pipeline with sub-second refreezes — and adds its read latency and
# write/backpressure counts. -query adds the plan-vs-naive twig
# execution matrix over the four Table 3 profiles (candidate reduction,
# p50 latency both ways, calibration) plus a served /v1/query count-only
# mix over the full HTTP path. The report schema is regression-tested in
# cmd/treelattice/loadbench_test.go.
bench:
	$(GO) run ./cmd/treelattice loadbench -gen xmark -scale 20000 \
		-duration 3s -warmup 500ms -seed 1 -batch 32 -methods all \
		-tenants 2 -backends -ingest -query \
		-out BENCH_serve.json

# benchcore is the build/estimate-path counterpart of `make bench`: it
# runs the canonical-keying microbenchmarks (BenchmarkKey and the
# pre-optimization string-encoder reference) plus the paper macro
# benchmarks (Table 3 lattice construction, Figure 9 response time) and
# writes BENCH_core.json with ns/op, B/op, and allocs/op per result.
benchcore:
	TWIG_BENCH_SCALE=2000 $(GO) run ./cmd/benchcore -benchtime 1s -out BENCH_core.json

microbench:
	$(GO) test -bench . -benchtime 1x ./...

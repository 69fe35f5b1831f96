# Stdlib-only Go module; no codegen. `make check` is the full gate the
# test suite is expected to pass: gofmt over every Go file in the work
# tree that is tracked or not ignored, vet,
# build, the race detector (the concurrent build pipeline and the HTTP
# server are exercised under -race), a short pass over each fuzz target's
# seed corpus, and the benchmark module in perfbench/ (its own go.mod),
# so an API change that breaks the benchmark's build fails here rather
# than in a benchmark run. `make bench` records the serving benchmark
# (perfbench) and `make benchcore` the layer benchmarks — deliberately
# outside the check gate: they measure. `make fuzz` runs the
# coverage-guided fuzzers for FUZZTIME each (longer runs: make fuzz
# FUZZTIME=5m). `make loc` counts non-test Go lines per package.
# `make experiments` regenerates EXPERIMENTS.txt, twigbench's report of
# record, and `make experiments-check` reruns twigbench against it.

GO ?= go
FUZZTIME ?= 10s

# Fuzz targets live next to the parsers they attack; each entry is
# "package:Target" (go test allows one -fuzz pattern per package run).
FUZZ_TARGETS = \
	./internal/xmlparse:FuzzParse \
	./internal/labeltree:FuzzQuerySyntax \
	./internal/labeltree:FuzzKeyDecode \
	./internal/labeltree:FuzzLeafSplice \
	./internal/labeltree:FuzzReadTree \
	./internal/lattice:FuzzFrozenLoad \
	./internal/lattice:FuzzCompressedLoad \
	./internal/lattice:FuzzDeltaMerge \
	./internal/fleet:FuzzTenantName \
	./internal/twigjoin:FuzzCount \
	./internal/serve:FuzzQueryEndpoint

# The packages FUZZ_TARGETS names, each once.
FUZZ_PKGS = $(sort $(foreach t,$(FUZZ_TARGETS),$(firstword $(subst :, ,$(t)))))

.PHONY: check fmt vet build orphans test race fuzz fuzz-short perfbench bench benchcore microbench loc experiments experiments-check

check: fmt vet build orphans race fuzz-short perfbench

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
	$(GO) test -run='^Fuzz' $(FUZZ_PKGS)

# fmt fails when gofmt would rewrite, or cannot read or parse, a Go file
# in the work tree that is tracked or not ignored: the files make loc
# reads. A tracked file deleted without git rm is not in that set.
fmt:
	@files=$$(git grep --untracked -l -e '' -- '*.go') || exit 1; \
	out=$$(gofmt -l $$files 2>&1); status=$$?; \
	if [ $$status -ne 0 ] || [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# orphans fails on, and names, every module package that no command, no
# example and not the root package imports: code that would ship while
# nothing runs it. internal/treetest, the random trees and patterns the
# tests share, is the one package that is imported only by tests.
orphans:
	@deps=$$($(GO) list -deps ./cmd/... ./examples/... .) && pkgs=$$($(GO) list ./...) || exit 1; \
	bad=$$(echo "$$pkgs" | grep -vxF -e "$$deps" -e treelattice/internal/treetest); \
	if [ -n "$$bad" ]; then echo "no command, example or the root package imports:"; echo "$$bad"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench records the serving benchmark of record: perfbench's estimate,
# query and ingest workloads over seeds 1-5, one JSON line per run, in
# BENCH_serve.jsonl (perfbench/README.md defines the workloads and
# metrics). record appends, so the old record goes first. The spread
# step prints each metric's median and quartile spread and fails when a
# spread is over its BENCHMARK.json bound or a run was incorrect.
bench:
	rm -f BENCH_serve.jsonl
	python3 perfbench/benchcmp.py record --checkout . --out BENCH_serve.jsonl --seeds 1-5
	python3 perfbench/benchcmp.py spread BENCH_serve.jsonl

# benchcore is the layer-by-layer counterpart of `make bench`: it runs
# the canonical-keying microbenchmarks (BenchmarkKey and the
# pre-optimization string-encoder reference), the store probes, the
# paper macro benchmarks (Table 3 lattice construction, Figure 9
# response time per backend: the bare estimators cold, and the two
# recursive methods warm through a summary's answer cache), twig
# execution, and a served estimate through the HTTP handler beside its
# decode, parse, estimate and encode steps, and writes BENCH_core.json
# with ns/op, B/op, and allocs/op per result: five runs of each
# benchmark, reported as the median run with the range of the five
# runs' ns/op.
benchcore:
	$(GO) run ./cmd/benchcore -benchtime 1s -count 5 -scale 2000 -out BENCH_core.json

microbench:
	$(GO) test -bench . -benchtime 1x ./...

# loc prints the non-test Go lines of every package directory, then
# their total, over the work tree as it is (tracked files still present
# and untracked ones .gitignore does not exclude) outside perfbench/ (its
# own module). With BASE=<rev> (make loc BASE=HEAD~1) it prints, per
# package and in total, the lines at BASE (read from git objects), the
# lines in the work tree, and the difference: a change's net line count
# in one run.
LOC_FILES = -- '*.go' ':!:*_test.go' ':!:perfbench/'
LOC_WORK = git grep --untracked -c -e '' $(LOC_FILES)

loc:
ifeq ($(BASE),)
	@$(LOC_WORK) | awk ' \
		{ n = $$0; sub(/.*:/, "", n); d = $$0; sub(/:[0-9]+$$/, "", d); if (!sub("/[^/]*$$", "", d)) d = "."; c[d] += n; total += n } \
		END { for (d in c) printf "%7d  %s\n", c[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }'
else
	@git rev-parse -q --verify '$(BASE)^{commit}' >/dev/null || { echo "loc: BASE=$(BASE) names no commit"; exit 1; }
	@{ git grep -c -e '' '$(BASE)' $(LOC_FILES) | sed 's/^/b:/'; \
	   $(LOC_WORK) | sed 's/^/w:/'; } | awk -v base='$(BASE)' ' \
		{ side = substr($$0, 1, 1); p = substr($$0, 3); if (side == "b") p = substr(p, length(base) + 2); \
		  n = p; sub(/.*:/, "", n); sub(/:[0-9]+$$/, "", p); \
		  d = p; if (!sub("/[^/]*$$", "", d)) d = "."; c[side, d] += n; t[side] += n; dirs[d] = 1 } \
		END { printf "%7s  %7s  %7s  %s\n", "base", "work", "diff", "package"; \
		  for (d in dirs) printf "%7d  %7d  %+7d  %s\n", c["b", d], c["w", d], c["w", d] - c["b", d], d | "sort -k4"; \
		  close("sort -k4"); printf "%7d  %7d  %+7d  total\n", t["b"], t["w"], t["w"] - t["b"] }'
endif

# experiments writes twigbench's report at the documented configuration
# (scale 20,000, K = 4, seed 42; about 70 s on one core) to
# EXPERIMENTS.txt, the record EXPERIMENTS.md and README quote.
# experiments-check reruns twigbench and diffs its report against the
# record with wall-clock values masked on both sides: durations and
# Table 3's speedups. Both stay out of check because of their run time; a
# change that moves an estimate (the golden file) reruns experiments.
TWIGBENCH = $(GO) run ./cmd/twigbench -scale 20000 -k 4 -seed 42
MASK_TIMING = sed -E 's/([0-9]+h)?([0-9]+m)?[0-9]+(\.[0-9]+)?(ns|µs|ms|s|x)( |$$)/T\5/g; s/ +/ /g'

experiments:
	@run=$$(mktemp) || exit 1; trap 'rm -f "$$run"' EXIT; \
	$(TWIGBENCH) > "$$run" && cat "$$run" > EXPERIMENTS.txt

experiments-check:
	@d=$$(mktemp -d) || exit 1; trap 'rm -rf "$$d"' EXIT; \
	$(TWIGBENCH) > "$$d/run" || exit 1; \
	$(MASK_TIMING) EXPERIMENTS.txt > "$$d/EXPERIMENTS.txt"; $(MASK_TIMING) "$$d/run" > "$$d/twigbench"; \
	cd "$$d" && diff -u EXPERIMENTS.txt twigbench && echo "experiments-check: twigbench matches EXPERIMENTS.txt apart from timing"

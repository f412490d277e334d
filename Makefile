GO ?= go

.PHONY: all build test vet fmt race bench bench-json bench-compare bench-smoke bench-scale bench-lda profile fuzz-smoke resume-smoke cover ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when any tracked Go file is
# not gofmt-clean.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The later passes repeat the tests of code that pools and reuses buffers,
# a hazard one race pass can miss: the in-process transport's response
# buffers, and the history handlers' generator scratch and the history
# pagers' page buffers that message collection runs through.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 ./internal/httpx
	$(GO) test -race -count=10 ./internal/platform/discord ./internal/platform/telegram ./internal/join

# One pass over every benchmark (correctness + headline numbers, not
# stable timings; use `go test -bench=. -benchmem .` for real measurement).
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./...

# Pipeline + analysis + store benchmarks (full study, hourly search, daily
# sweep, message collection, LDA fit + K×vocab kernel sweep, cold figure
# aggregation, columnar ingest; serial vs parallel where both exist, plus
# the checkpointed study variant whose delta over plain parallel is the
# cost of crash-resumability) rendered to the next BENCH_<n>.json (earlier
# documents are kept as history), including the derived
# speedups, custom metrics (ns/rec, liveB/rec, tok/s, and the spill
# benchmark's peakRSS-MB / heapLive-MB / segDisk-MB) and the machine's
# core count. benchjson's -cpus mode runs the suite under each GOMAXPROCS
# in BENCH_CPUS, so the document carries a per-CPU-count matrix — the
# measurements behind the SearchWorkers/CollectWorkers defaults and the
# LDA chunk-merge speedup (BenchmarkLDAFit/alias/parallel per CPU count),
# measured rather than assumed.
BENCH_PATTERN = StudyRun|HourlySearch|DailySweep|CollectMessages|LDAFit|LDASweep|RenderAll|StoreIngest
BENCH_PKGS = ./internal/core ./internal/analysis/lda ./internal/store
BENCH_CPUS = 1,2

bench-json:
	@n=$$(ls BENCH_*.json 2>/dev/null | sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -1); \
	out=BENCH_$$(($${n:-0} + 1)).json; \
	$(GO) run ./cmd/benchjson -cpus '$(BENCH_CPUS)' -bench '$(BENCH_PATTERN)' \
		-count 3 -o $$out $(BENCH_PKGS) && cat $$out

# Regression gate, paired A/B: benchjson extracts BENCH_BASE's tree with
# `git archive` into a temp dir and runs the pipeline benchmarks of that
# tree and of the working tree alternately, 3 repetitions each under the
# same GOMAXPROCS matrix as bench-json, so host drift lands on both sides
# alike. It fails on >20% growth in ns/op, allocs/op or a custom metric
# (ns/rec, liveB/rec) of the working tree's fastest run over the base's.
# The default base, HEAD, compares an uncommitted change with its parent;
# on a clean tree it is an A/A run.
BENCH_BASE ?= HEAD

bench-compare:
	$(GO) run ./cmd/benchjson -cpus '$(BENCH_CPUS)' -bench '$(BENCH_PATTERN)' \
		-count 3 -compare-rev '$(BENCH_BASE)' $(BENCH_PKGS)

# Capture CPU + allocation profiles and an execution trace of one scaled
# study run. Read them with `go tool pprof cpu.pprof` (top, list <func>,
# web) and `go tool trace trace.out`; DESIGN.md §10 documents the workflow.
profile:
	$(GO) run ./cmd/msgscope run -summary \
		-cpuprofile cpu.pprof -memprofile mem.pprof -trace trace.out
	@echo wrote cpu.pprof mem.pprof trace.out

# One iteration of the end-to-end study benchmark and of the message
# collection layer benchmark: cheap proof in CI that the pipeline still
# runs under the benchmark harness.
bench-smoke:
	$(GO) test -run='^$$' -bench='StudyRun|CollectMessages' -benchtime=1x ./internal/core

# Paper-scale ingest smoke: one iteration of the store benchmarks at 10x
# scale (1M tweets, 2M messages, 500K users through the columnar store).
# The short timeout is the gate — it fails if ingest cost stops being
# O(record) (e.g. a reallocation bug turns appends quadratic), not on
# timing noise. The second pass is observation-heavy: 5x groups (100K)
# probed over a doubled 76-sweep horizon (~6M observations through the
# append-only observation columns), the shape a TeleScope-style
# longitudinal study would put on the group family.
bench-scale:
	MSGSCOPE_BENCH_SCALE=10 $(GO) test -run='^$$' -bench='StoreIngest' \
		-benchtime=1x -benchmem -timeout=300s ./internal/store
	MSGSCOPE_BENCH_SCALE=5 MSGSCOPE_BENCH_SWEEPS=76 $(GO) test -run='^$$' \
		-bench='StoreIngest/groups' -benchtime=1x -benchmem -timeout=300s \
		./internal/store
	# Memory-budget gate: the same 10x corpus (1M tweets, 2M messages)
	# ingested under a 32 MiB spill budget with the Go heap pinned by
	# GOMEMLIMIT. An unbudgeted store holds ~200 MB of rows live at this
	# scale; the budgeted pass must finish under a 384 MiB peak-RSS
	# ceiling (segments on disk, live heap near zero) or the benchmark
	# itself fails via MSGSCOPE_BENCH_RSS_MAX.
	GOMEMLIMIT=256MiB MSGSCOPE_BENCH_SCALE=10 MSGSCOPE_SPILL_BUDGET=33554432 \
		MSGSCOPE_BENCH_RSS_MAX=402653184 $(GO) test -run='^$$' \
		-bench='StoreIngestSpill' -benchtime=1x -benchmem -timeout=300s \
		./internal/store

# Short fuzz bursts over the parsing surfaces the fault injector attacks
# (URL extraction and the WhatsApp landing-page scraper), the alias-table
# construction, the checkpoint manifest decoder, the spill segment
# reader (open, bind and read every row of arbitrary bytes), checkpoint
# record-log replay (arbitrary bytes in one of the five logs) and the
# streaming dataset Load (one arbitrary dataset file). 10s per target:
# long enough to shake out regressions against the checked-in corpus,
# short enough for every CI run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/urlpat
	$(GO) test -run='^$$' -fuzz='^FuzzExtract$$' -fuzztime=10s ./internal/urlpat
	$(GO) test -run='^$$' -fuzz='^FuzzScrapeLanding$$' -fuzztime=10s ./internal/platform/whatsapp
	$(GO) test -run='^$$' -fuzz='^FuzzAliasTable$$' -fuzztime=10s ./internal/analysis/lda
	$(GO) test -run='^$$' -fuzz='^FuzzManifestDecode$$' -fuzztime=10s ./internal/checkpoint
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentOpen$$' -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzCheckpointReplay$$' -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=10s ./internal/store

# Topic-kernel smoke: fit both Gibbs kernels (the dense reference and the
# alias chain Fit routes K <= 256 to) on a tiny corpus and assert
# converged perplexity parity, then one pass of the LDA benchmarks under
# the harness. Cheap proof in CI that a sampler change cannot silently
# diverge the alias chain's topic quality from the exact conditional.
bench-lda:
	$(GO) test -count=1 -run='^TestLDASamplerParitySmoke$$' ./internal/analysis/lda
	$(GO) test -run='^$$' -bench='LDAFit|LDASweep' -benchtime=1x ./internal/analysis/lda

# Checkpoint-resume gate: kill a checkpointed study at a day boundary and
# mid-phase, resume each from disk, and require byte-identical dataset and
# report output versus the uninterrupted run. The full kill matrix (every
# boundary, both worker widths, under fault plans) runs with `make test`
# as TestCrashKillResumeMatrix / TestChaosKillResumeByteIdentity.
resume-smoke:
	$(GO) test -count=1 -run='^TestResumeSmoke$$' .

# Coverage floor for the fault/retry layer and the in-process HTTP
# transport: the rest of the repo is covered by end-to-end pipeline tests,
# but these packages are the safety net everything else leans on, so their
# own tests must exercise them directly.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/retry ./internal/faults ./internal/httpx
	@$(GO) tool cover -func=cover.out | tail -1
	@$(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); if ($$3+0 < 70) { printf "coverage %.1f%% below the 70%% floor for internal/retry + internal/faults + internal/httpx\n", $$3; exit 1 } }'

ci: fmt vet build race cover fuzz-smoke resume-smoke bench-smoke bench-scale bench-lda bench bench-compare

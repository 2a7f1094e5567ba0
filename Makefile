GO ?= go

# Benchmark knobs: BENCH_COUNT repeated runs (benchstat wants ≥ 5
# samples per benchmark to judge significance), BENCH_TIME per
# measurement, BENCH_PKGS the engine-path packages that carry the
# forward-pass benchmarks.
BENCH_COUNT ?= 5
BENCH_TIME  ?= 200ms
BENCH_PKGS  ?= ./internal/tensor/... ./internal/nn/... ./internal/models/...

.PHONY: check vet build cross test purego race results bench bench-all benchcmp benchab models gateway

# check runs everything CI should gate on: vet, a full build, the full
# test suite (tier-1), and race-detector runs for the concurrency-heavy
# packages (the serving path, the scheduler, the multi-backend router,
# the load drivers, their metrics, and the engine's parallel GEMM /
# shared-plan paths). race first repeats the aggregator hand-off,
# admission and plan tests twenty times on one and on four procs: they
# hold the batching rule's orderings and plan growth under concurrent
# checkouts, which a single pass can get right by luck. results then
# regenerates the paper's evaluation and compares it with RESULTS.txt.
check: vet build cross test race results

# vet is static analysis plus a formatting gate: gofmt -l prints the
# files that need reformatting, so any output fails the target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

# cross builds for the platforms the code keeps fallbacks for, so they
# cannot rot unnoticed: Windows takes the !unix paths (heap parameters
# in tensor, a read copy instead of a mapping in modelstore) and leaves
# out bench/, which is Linux-only by design; arm64 builds everything on
# a second architecture.
cross:
	GOOS=windows GOARCH=amd64 $(GO) build . ./internal/... ./cmd/... ./examples/...
	GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# purego reruns the kernel packages with the assembly left out, so the
# portable twin of every amd64 kernel (GemvBatch's tile) is tested on an
# AVX2 host too, not only on hosts without it.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn

race:
	GOMAXPROCS=1 $(GO) test -race -count=20 -run 'TestAggregator|TestAdmission|TestPastDeadline|TestPlan' ./internal/service ./internal/sched ./internal/nn
	GOMAXPROCS=4 $(GO) test -race -count=20 -run 'TestAggregator|TestAdmission|TestPastDeadline|TestPlan' ./internal/service ./internal/sched ./internal/nn
	$(GO) test -race ./internal/tensor/... ./internal/nn/... ./internal/models/... ./internal/modelstore/... ./internal/service/... ./internal/sched/... ./internal/metrics/... ./internal/router/... ./internal/workload/... ./internal/trace/... ./internal/admin/... ./internal/controlplane/... ./internal/timeseries/... ./internal/events/... ./internal/alerts/... ./internal/gateway/... ./internal/pipeline/...

# results regenerates every deterministic experiment (the paper's
# tables and figures plus the model-based extensions) and fails unless
# the output is byte-identical to the committed RESULTS.txt. It takes
# about half a minute, so it sits in check but not in test.
results:
	$(GO) run ./cmd/djinn-bench | cmp - RESULTS.txt

# gateway is an HTTP-tier smoke test: boot djinn-service with the
# JSON gateway enabled, POST the same POS query twice, and show the
# second response served from the content-addressed cache
# (`"cached":true`), then shut the service down.
gateway:
	@$(GO) build -o /tmp/djinn-service-smoke ./cmd/djinn-service
	@/tmp/djinn-service-smoke -apps POS -addr 127.0.0.1:7424 -http 127.0.0.1:7423 & \
	pid=$$!; trap "kill $$pid 2>/dev/null" EXIT; \
	sleep 2; \
	body='{"app":"pos","text":"the quick brown fox jumps over the lazy dog"}'; \
	echo "first request (cache fill):"; \
	curl -sf -X POST -d "$$body" http://127.0.0.1:7423/v1/infer; echo; \
	echo "second request (cache hit):"; \
	out=$$(curl -sf -X POST -d "$$body" http://127.0.0.1:7423/v1/infer); echo "$$out"; echo; \
	echo "$$out" | grep -q '"cached":true' && echo "gateway smoke: OK (served from cache)" \
		|| { echo "gateway smoke: FAILED (second response not cached)"; exit 1; }

# models exports all seven Tonic networks as versioned .djw weight
# files (~850 MB, a one-time cost) and verifies every checksum, so a
# store-backed server (`djinn-service -models $(MODELS_DIR)`) can boot
# without building a single model. Override MODELS_DIR to choose the
# destination.
MODELS_DIR ?= ./models-export
models:
	$(GO) run ./cmd/djinn-service -export-models $(MODELS_DIR) -apps all
	$(GO) run ./cmd/djinn-service -verify-models $(MODELS_DIR)

# bench emits benchstat-friendly output for the engine hot path: pipe
# two runs into `benchstat old.txt new.txt` to compare. Example:
#   make bench > new.txt
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) $(BENCH_PKGS)

# bench-all sweeps every package's benchmarks once (slow).
bench-all:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# benchcmp benchmarks the working tree against a git ref (BENCH_REF,
# default HEAD^) on the BENCH_PKGS hot path and compares the two runs
# through benchstat when it is installed, falling back to printing both
# raw outputs when it is not. The ref runs from a throwaway worktree,
# so the working tree (including uncommitted changes) is untouched.
# Example: make benchcmp BENCH_REF=v0-seed BENCH_COUNT=5
BENCH_REF ?= HEAD^
benchcmp:
	@tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/ref" 2>/dev/null; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/ref" $(BENCH_REF) >/dev/null || exit 1; \
	echo "benchcmp: benchmarking $(BENCH_REF) ..."; \
	( cd "$$tmp/ref" && $(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) $(BENCH_PKGS) ) > "$$tmp/old.txt" || { cat "$$tmp/old.txt"; exit 1; }; \
	echo "benchcmp: benchmarking working tree ..."; \
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) -benchtime $(BENCH_TIME) $(BENCH_PKGS) > "$$tmp/new.txt" || { cat "$$tmp/new.txt"; exit 1; }; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$$tmp/old.txt" "$$tmp/new.txt"; \
	else \
		echo "benchcmp: benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest); raw outputs:"; \
		echo "--- $(BENCH_REF)"; cat "$$tmp/old.txt"; \
		echo "--- working tree"; cat "$$tmp/new.txt"; \
	fi

# benchab runs the repository benchmark (BENCHMARK.json, bench/) as a
# paired A/B: REF's committed files against the working tree, ten
# alternating pairs per workload with a fresh seed per pair, and prints
# per metric each side's median and quartiles, the tree's wins and a
# verdict (claimable / within bound / unresolved / REGRESSED). W limits
# it to one workload; a full run takes about 45 minutes. See
# cmd/benchab.
# Example: make benchab REF=HEAD^ W=nlp_djrt_closed
REF ?= HEAD^
benchab:
	$(GO) run ./cmd/benchab -ref $(REF) $(if $(W),-workload $(W))

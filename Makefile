# Tier-1 verification: build + test must stay green on every PR.
# `make race` additionally runs the race detector over the whole module;
# the experiments layer executes simulations on a worker pool, so race
# coverage is part of the concurrency contract (see DESIGN.md §"Concurrency
# model").

GO ?= go

.PHONY: build test race race-experiments race-sim bench bench-json bench-compare hist-json hist-compare digest-check arena-smoke blame-smoke examples-smoke perfbench-check fuzz-smoke profile trace vet fmt-check ci ci-full verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race pass on the experiments layer: the prefix checkpoint
# cache is shared mutable state handed between worker goroutines mid-run
# (capture once, fork concurrently), so this package keeps an explicit
# race gate of its own even if the full-module sweep is ever trimmed.
race-experiments:
	$(GO) test -race -count 1 ./internal/experiments/...

# Focused race pass on the simulation core: the timing primitives, the
# accelerator (PE interleave, RunJobs waves), the caches, the PRAM row
# store and the PRAM controller. Each simulation runs on one goroutine;
# the shared state this pass guards is the process-wide cache
# line-storage pool that concurrent experiment workers draw from, and
# the PRAM segment slabs and wear count slabs that concurrent forks of
# one checkpoint template borrow, kept under the race detector even if
# the full-module sweep is ever trimmed.
race-sim:
	$(GO) test -race -count 1 ./internal/sim/... ./internal/accel/... ./internal/cache/... ./internal/pram/... ./internal/memctrl/...

# Full benchmark sweep; BenchmarkAllExperiments is the top-level number
# to track (serial vs parallel over the shared result cache).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Benchmark trajectory: every figure/table benchmark, recorded as
# BENCH_suite.json (ns/op + B/op + allocs/op per benchmark). Commit the
# file so perf changes stay visible PR over PR. -benchtime 5x averages
# out GC ticks that dominate the sub-millisecond table benchmarks;
# -count 5 lets benchjson keep the fastest repetition (host load spikes
# only ever slow a deterministic benchmark, so min-of-means is the
# noise-robust estimator where the old single shot flapped ±20%). It
# refuses a dirty tree, so every recorded baseline names a real commit.
bench-json:
	@if [ -n "$$(git status --porcelain)" ]; then \
		echo "bench-json: the working tree is dirty; commit first so BENCH_suite.json names a real commit"; exit 1; fi
	$(GO) test -run '^$$' -bench '^(BenchmarkAllExperiments|BenchmarkFig|BenchmarkTable|BenchmarkSec5|BenchmarkPRAM|BenchmarkCache)' \
		-benchmem -benchtime 5x -count 5 . | $(GO) run ./tools/benchjson -out BENCH_suite.json

# Perf regression gate: rerun the suite benchmarks (same min-of-means
# treatment as bench-json) and diff ns/op against the committed
# BENCH_suite.json; fails when any benchmark slowed down by more than
# 10%. Host timings are still noisy, so this is an optional CI target
# (ci-full), not part of the default `make ci` gate.
bench-compare:
	$(GO) test -run '^$$' -bench '^(BenchmarkAllExperiments|BenchmarkFig|BenchmarkTable|BenchmarkSec5|BenchmarkPRAM|BenchmarkCache)' \
		-benchmem -benchtime 5x -count 5 . | $(GO) run ./tools/benchjson -compare BENCH_suite.json

# Latency distribution baseline: the reference run's full histogram
# export (every instrument, sparse buckets). Commit the file so latency
# drift stays visible PR over PR; regenerate after intended model changes.
hist-json:
	$(GO) run ./cmd/dramless run -system DRAM-less -kernel gemver \
		-hist HIST_baseline.json > /dev/null

# Latency regression gate: rerun the reference configuration and diff
# per-instrument p99 against the committed baseline with `dramless
# diff`. The simulator is deterministic, so any drift is a real
# behavioral change; the 10% threshold only absorbs intended tuning. An
# instrument that stops recording fails the gate too.
hist-compare:
	@mkdir -p prof
	$(GO) run ./cmd/dramless run -system DRAM-less -kernel gemver \
		-hist prof/hist.current.json > /dev/null
	$(GO) run ./cmd/dramless diff -top 0 -fail-over 0.10 HIST_baseline.json prof/hist.current.json

# Output digests: the sha256 of the whole experiment suite's JSON and of
# the arena-1m tournament's cell set (every policy on DRAM-less at 1 MiB
# over four kernels). The simulator is deterministic, so any drift is a
# behavioural change: the tables, the counters and the energy model all
# feed these bytes. Only a change that means to move reproduced numbers
# updates the two values, and says so. ~4.5 s together.
DIGEST_EXPERIMENTS := 9f9fe3738e4f7ab1ae8d2cc570b66c7e72fc52eb429f465b45ebfb227afe9a9d
DIGEST_ARENA := 24e89d2409ab371c48351a3d8f53600110d7790c03d99a9c87356bb282d8fd2f
digest-check:
	@got=$$($(GO) run ./cmd/dramless experiments -parallel 1 -json | sha256sum | cut -d' ' -f1); \
	if [ "$$got" != "$(DIGEST_EXPERIMENTS)" ]; then \
		echo "digest-check: experiments -json hashes to $$got, want $(DIGEST_EXPERIMENTS)"; exit 1; fi
	@got=$$($(GO) run ./cmd/dramless arena -parallel 1 -scale 1048576 -kernels durbin,lu,floyd,jaco1d -json | sha256sum | cut -d' ' -f1); \
	if [ "$$got" != "$(DIGEST_ARENA)" ]; then \
		echo "digest-check: arena -json hashes to $$got, want $(DIGEST_ARENA)"; exit 1; fi
	@echo "digest-check: both output digests match"

# Scheduler policy smoke. The tournament runs every registered policy
# on one kernel: the policy registry, the per-cell private observers and
# the ranked-table assembly end to end. Fig 13 then runs under a
# -scheduler override, which its per-column policies must ignore. Output
# is discarded: the focused tests pin Fig 13's override immunity and
# every policy's cold-vs-forked determinism (the arena tests pin the
# tournament table's structure).
arena-smoke:
	$(GO) run ./cmd/dramless arena -kernels gemver > /dev/null
	$(GO) run ./cmd/dramless experiments -scheduler palp -kernels gemver fig13 > /dev/null
	$(GO) test -count 1 -run 'TestFig13IgnoresPolicyOverride|TestPolicyConformance' ./internal/...

# Blame attribution smoke: run the paper's two headline organizations
# through `dramless blame` (tracing forced on, so the critical path is
# exercised too), export both accounts and render the `dramless diff`
# that explains the DRAM-less vs Integrated-MLC gap — the diff step
# parses both exports back, so the JSON round-trip is asserted at the
# CLI surface. The focused test run then asserts the exactness invariant
# (phase blame sums == phase walls to the picosecond, every kind) and
# the export round-trip at the library surface.
blame-smoke:
	@mkdir -p prof
	$(GO) run ./cmd/dramless blame -system DRAM-less -kernel gemver \
		-o prof/blame.dramless.json > /dev/null
	$(GO) run ./cmd/dramless blame -system Integrated-MLC -kernel gemver \
		-o prof/blame.mlc.json > /dev/null
	$(GO) run ./cmd/dramless diff prof/blame.dramless.json prof/blame.mlc.json
	$(GO) test -count 1 -run 'TestBlameSumsEqualPhaseWalls' ./internal/system/
	$(GO) test -count 1 -run 'TestBlameJSONRoundTrip' ./internal/obs/

# CPU + heap profiles of the Figure 15 sweep (the allocation-heaviest
# experiment) into ./prof/; inspect with `go tool pprof prof/fig15.cpu`.
# Profiles are scratch output (gitignored), regenerated on demand here.
profile:
	mkdir -p prof
	$(GO) run ./cmd/dramless experiments \
		-cpuprofile prof/fig15.cpu -memprofile prof/fig15.mem fig15 > /dev/null
	@echo "profiles: prof/fig15.cpu prof/fig15.mem"

# Observability demo: one DRAM-less end-to-end run with hardware
# counters on stdout and a simulated-time timeline in trace.json -
# open it in chrome://tracing or https://ui.perfetto.dev (DESIGN.md §9).
trace:
	$(GO) run ./cmd/dramless run -system DRAM-less -kernel gemver \
		-trace trace.json -counters
	@echo "timeline written to trace.json"

# Examples smoke: run every program under examples/ end to end, output
# discarded, so the public facade they use keeps working beyond
# compiling. examples/offload is the one that runs RunKernel and then
# RunJobs on one accelerator (the PSC handoff between the two).
examples-smoke:
	@for e in examples/*/; do \
		echo "examples-smoke: $$e"; \
		$(GO) run ./$$e > /dev/null || exit 1; \
	done

# perfbench is its own module (own go.mod), so `go build ./...` at the
# root never compiles it; vet and test it here so a change to the
# internal packages it builds on (mem.Device, memctrl.Subsystem, the
# run/batch names) cannot break the benchmark harness unseen.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Fuzz smoke: a few seconds of the PRAM module's three-phase protocol
# checks (arbitrary PREACTIVE/ACTIVATE/READ/WRITE/MRW sequences), of the
# time-series primitives (Add, AddSpan and Spread on both element types,
# up to the window cap), of each
# export-file reader fuzzer and of the CLI file modes built on them
# (`dramless report`/`blame` on one file, `dramless diff` on two),
# starting from the committed seed corpora (testdata/fuzz) and the
# reference-run histogram export. Go's input minimizer would spend the
# whole budget shrinking the first new input of a large seed, so
# minimization is off; a failing input is still written to
# testdata/fuzz for replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzModuleProtocol$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/pram/
	$(GO) test -run '^$$' -fuzz '^FuzzSeries$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzReadHistogramsJSON$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzReadBlameJSON$$' -fuzztime 5s -fuzzminimizetime 0 ./internal/obs/
	$(GO) test -run '^$$' -fuzz '^FuzzReportFiles$$' -fuzztime 5s -fuzzminimizetime 0 ./cmd/dramless/
	$(GO) test -run '^$$' -fuzz '^FuzzBlameFiles$$' -fuzztime 5s -fuzzminimizetime 0 ./cmd/dramless/
	$(GO) test -run '^$$' -fuzz '^FuzzDiffFiles$$' -fuzztime 5s -fuzzminimizetime 0 ./cmd/dramless/

vet:
	$(GO) vet ./...

fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# Pre-merge gate: everything a PR must pass before landing - build,
# tests, race detector, go vet, gofmt, the example programs, the
# perfbench module's vet and tests, the two deterministic export gates
# (the p99 latency gate and the blame diff smoke, ~2 s together), the two
# output digests (~4.5 s) and the deterministic scheduler tournament
# smoke (~5 s). `make verify` is its alias.
ci: test race race-experiments race-sim vet fmt-check examples-smoke perfbench-check hist-compare blame-smoke digest-check arena-smoke

# ci plus the host-timing benchmark gate against the committed
# baseline and the fuzzers.
ci-full: ci bench-compare fuzz-smoke

verify: ci

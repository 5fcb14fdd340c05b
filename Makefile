# Build, verification and benchmark entry points for the deepfusion
# reproduction. `make verify` is the tier-1 gate every change must
# keep green; `make bench` records the screening-throughput trajectory
# of the batched inference engine plus the paper's table/figure
# reports as JSON.

GO ?= go

.PHONY: all build verify test test-benchmark test-distributed test-dispatch-http test-serve test-integrity fuzz-h5lite vet vet-tags vulncheck bench bench-screen bench-consensus bench-featurize bench-kernels bench-precision bench-report bench-serve bench-integrity bench-smoke profile-paper clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Vet again under the build tags CI exercises, so tag-gated files
# (benchmarks, integration probes) stay analyzable as they appear.
vet-tags:
	$(GO) vet -tags bench,integration ./...

# Known-vulnerability scan of the module and its (stdlib-only)
# dependency graph. Installs govulncheck on demand; requires network
# for the tool and its vulnerability database.
vulncheck:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

test:
	$(GO) test ./...

# The repository benchmark is a nested module (benchmark/go.mod), so
# `go test ./...` never descends into it: build it and run its tests
# (maths, accounting rules, a smoke run of all four workloads) here, so
# a refactor that breaks its build fails in CI and not in the pipeline.
test-benchmark:
	cd benchmark && $(GO) test ./...

# Race-enabled pass over the distributed campaign runtime: lease
# state machine on the fake clock, racing-claim property test, the
# fault-injection chaos harness and the forked multi-process
# byte-identity test. The -timeout is a hang detector — the tests
# themselves run on virtual time.
test-distributed:
	$(GO) test -race -timeout 10m ./internal/campaign/... ./internal/cluster/

# Race-enabled pass over the multi-host HTTP dispatch layer: the
# shared Dispatcher conformance suite against both the filesystem and
# HTTP backends, the remote-worker byte-identity run, and the
# network-fault chaos harness (dropped requests, lost responses,
# injected 5xx, duplicated calls). All retry backoff runs on the fake
# clock — zero wall sleeps — so the -timeout is a hang detector.
test-dispatch-http:
	$(GO) test -race -timeout 10m ./internal/campaign/dispatchhttp/ ./internal/campaign/dispatchtest/

# Race-enabled pass over the screening service: the cross-request
# batcher on the fake clock (deadline vs batch-full vs drain flushes,
# exactly-once generations), admission control under saturation and
# the HTTP round trip. Deterministic — no wall-clock sleeps.
test-serve:
	$(GO) test -race -timeout 10m ./internal/serve/

# Race-enabled pass over the durability layer: h5lite v2 checksums
# (golden bytes, bit-flip and truncation sweeps, fuzz seed corpus),
# the disk-fault injection plans, the self-healing campaign loop
# (quarantine + re-queue under the repair budget), offline fsck, the
# shard-upload CRC refusal on the wire, and the screening service's
# restart healing. Deterministic on virtual time; -timeout is a hang
# detector.
test-integrity:
	$(GO) test -race -timeout 10m ./internal/h5lite/ ./internal/campaign/ ./internal/campaign/dispatch/ ./internal/campaign/dispatchhttp/ ./internal/serve/

# Short coverage-guided fuzz of the h5lite decoder on top of the
# checked-in seed corpus: no input may panic it, over-allocate, or
# decode corrupt bytes silently. CI runs this as a smoke step.
fuzz-h5lite:
	$(GO) test ./internal/h5lite/ -fuzz=FuzzRead -fuzztime=30s

# Tier-1 verification: build, vet, full test suite.
verify: build vet test

# Screening-engine throughput: batched inference vs the per-sample
# baseline (see internal/screen/bench_test.go).
bench-screen:
	$(GO) test ./internal/screen/ -run xxx -bench 'BenchmarkRunJob' -benchtime 2s | tee bench_screen.txt

# CPU profile of the paper-shape job (BenchmarkRunJobPaperF32: 48^3
# grid, conv 32/64, 12 poses, batch 2, 2 ranks, f32 — the screen_paper
# workload of the repository benchmark) and its 15 hottest functions, so
# the next change to that path starts from measured traffic. The test
# binary and the profile stay in $(PROFILE_DIR), which git ignores.
PROFILE_DIR ?= .bench_build/profile
profile-paper:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/screen/ -run '^$$' -bench 'BenchmarkRunJobPaperF32$$' -benchtime 10x -cpu 2 \
		-o $(PROFILE_DIR)/screen.test -cpuprofile $(PROFILE_DIR)/paper.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/screen.test $(PROFILE_DIR)/paper.cpu.prof

# Ensemble-engine win: featurize-once/score-N consensus scoring vs N
# independent single-scorer runs over the same poses.
bench-consensus:
	$(GO) test ./internal/screen/ -run xxx -bench 'BenchmarkConsensus' -benchtime 2s | tee bench_consensus.txt

# Hot-path performance trajectory: f64-reference vs f32-fast-path
# pairs for the packed panel GEMM, the lowered Conv3D forward, the
# Coherent PredictBatch and the distributed RunJob
# (cmd/benchreport/kernels.go). BENCH_6.json is the committed
# trajectory artifact of the float32 inference PR (BENCH_5.json stays
# as the PR-5 featurization-cache record); CI uploads a fresh copy as
# a workflow artifact.
bench-kernels:
	$(GO) run ./cmd/benchreport -kernels -json > BENCH_6.json
	@echo "wrote BENCH_6.json"

# Precision microbenchmarks: the f64/f32 kernel pairs as plain `go
# test -bench` runs (packed GEMM, Coherent PredictBatch, RunJob) for
# quick iteration without regenerating the JSON artifact.
bench-precision:
	$(GO) test ./internal/tensor/ ./internal/fusion/ -run xxx -bench 'BenchmarkMatMulPacked|BenchmarkPredictBatchInto' -benchtime 1s | tee bench_precision.txt
	$(GO) test ./internal/screen/ -run xxx -bench 'BenchmarkRunJobBatched' -benchtime 2s | tee -a bench_precision.txt

# Screening-service trajectory: the warm engine behind the HTTP front
# door vs the solo RunJob baseline on the same scorer and job shape
# (cmd/benchreport/serve.go). Saturation throughput must hold >= 0.9x
# RunJob; low-load p99 must stay under the 25ms batching deadline.
# BENCH_8.json is the committed artifact; CI uploads a fresh copy.
bench-serve:
	$(GO) run ./cmd/benchreport -serve -json > BENCH_8.json
	@echo "wrote BENCH_8.json"

# Featurization microbenchmarks: Voxelize/BuildGraph per pose, cached
# vs uncached, repro + paper grids (internal/featurize/bench_test.go).
bench-featurize:
	$(GO) test ./internal/featurize/ -run xxx -bench . -benchtime 1s | tee bench_featurize.txt

# Paper tables and figures as machine-readable JSON (smoke budget;
# pass FULL=1 for the full budget).
bench-report:
	$(GO) run ./cmd/benchreport $(if $(FULL),-full) -json > bench_report.json
	@echo "wrote bench_report.json"

# Durability-layer cost trajectory: one prediction shard written and
# read through the real shard I/O path at h5lite v1 (no checksums) vs
# v2 (CRC32C sections + whole-file trailer, the default), each pair
# timed strictly interleaved so host noise cancels
# (cmd/benchreport/integrity.go). The WriteShard/ReadShard v2/v1
# ratios must stay <= 1.05. BENCH_10.json is the committed artifact;
# CI uploads a fresh copy.
bench-integrity:
	$(GO) run ./cmd/benchreport -integrity -json > BENCH_10.json
	@echo "wrote BENCH_10.json"

# One-iteration pass over every benchmark in the repo so benchmark
# code cannot rot; CI runs this on every push. BENCH_SCALE=smoke drops
# the paper-table benchmarks to the smoke budget — this is a
# compile-and-run rot check, not a measurement.
bench-smoke:
	BENCH_SCALE=smoke $(GO) test -run=NONE -bench=. -benchtime=1x ./...

bench: bench-screen bench-consensus bench-featurize bench-kernels bench-precision bench-serve bench-integrity bench-report

clean:
	rm -f bench_screen.txt bench_consensus.txt bench_featurize.txt bench_precision.txt bench_report.json

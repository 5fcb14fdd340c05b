# Build, verification and benchmark entry points for the deepfusion
# reproduction. `make verify` is the tier-1 gate every change must
# keep green; `make bench` records the screening-throughput trajectory
# of the batched inference engine plus the paper's table/figure
# reports as JSON.

GO ?= go

.PHONY: all build verify test test-benchmark test-portable test-race smoke-campaign deadcode fuzz-h5lite fuzz-smiles fuzz-submit vet vulncheck bench bench-screen bench-consensus bench-featurize bench-precision bench-report bench-smoke profile-paper profile-f64 profile-dock profile-campaign clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Liveness gate: fails on any production function or method that only
# tests reach, or nothing does, in the main module and benchmark/ (built
# for amd64 and for 386); a method is live when a selector of its name
# is reached or its type lends it to an interface. The roots, the
# allow-list and its reasons are in tools/deadcode/main.go.
deadcode:
	$(GO) run ./tools/deadcode

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
# a refactor that breaks its build — or that its vet pass would flag —
# fails in CI and not in the pipeline.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The kernel packages on a 32-bit, non-amd64 target: the only run of
# the pure-Go leaves (axpy_generic.go — Axpy32, the tap-block rows,
# the GEMM panels; Exp on every element of ExpInto) under the layers,
# the SG-CNN head's generic graph kernels and the fusion models that
# use them, and of their results against the goldens the amd64
# assembly recorded (fusion.TestF32BitsGolden, tensor.TestExpBitsGolden),
# and of docking against dock.TestDockBitsMatchGolden, whose bits no
# longer depend on the host. Goldens that pass through math.Exp
# (fusion.TestTrainBitsGolden, the model scores of
# fusion.TestF64BitsGolden) skip or narrow where it rounds differently
# from the recording host. About a minute on 2 CPUs.
test-portable:
	GOARCH=386 $(GO) test ./internal/tensor/ ./internal/nn/ ./internal/graph/ ./internal/fusion/ ./internal/dock/

# Race-enabled pass over the whole module: the campaign runtime and its
# dispatch backends, the screening service, the durability layer, and
# the generic kernels (tensor, nn, graph, featurize) that rank
# goroutines share through one model's weights. Everything
# time-dependent runs on injected fake clocks, so -timeout is a hang
# detector: the slowest package (internal/experiments) takes ~5 min
# under -race on 2 CPUs, the whole pass ~6.5 min. -shuffle=on runs each
# package's tests in a random order (the seed is printed), so a test
# that depends on another's side effects fails here.
test-race:
	$(GO) test -race -shuffle=on -timeout 20m ./...

# The campaign CLI end to end, since cmd/campaign has no unit tests:
# build the binary, run a one-target campaign (the coordinator plus its
# in-process workers), resume it (a no-op that must exit 0), then read
# it back with status -json and fsck. Any non-zero exit fails the
# target. About 20 s on 2 CPUs, nearly all of it training the
# smoke-scale model for run and again for resume.
SMOKE_DIR ?= .smoke-campaign
smoke-campaign:
	rm -rf $(SMOKE_DIR)
	mkdir -p $(SMOKE_DIR)
	$(GO) build -o $(SMOKE_DIR)/campaign ./cmd/campaign
	$(SMOKE_DIR)/campaign run -dir $(SMOKE_DIR)/camp -targets protease1 -n 8 -chunk 4 -top 2
	$(SMOKE_DIR)/campaign resume -dir $(SMOKE_DIR)/camp
	$(SMOKE_DIR)/campaign status -dir $(SMOKE_DIR)/camp -json
	$(SMOKE_DIR)/campaign fsck -dir $(SMOKE_DIR)/camp

# Short coverage-guided fuzz of the h5lite decoder on top of the
# checked-in seed corpus: no input may panic it, over-allocate, or
# decode corrupt bytes silently. CI runs this as a smoke step. Every
# fuzz smoke caps minimization of a new interesting input at 5 s: Go's
# default of 60 s would otherwise eat most of the 30 s of exploration.
fuzz-h5lite:
	$(GO) test ./internal/h5lite/ -fuzz=FuzzRead -fuzztime=30s -fuzzminimizetime=5s

# Short coverage-guided fuzz of the SMILES parser, which reads inline
# structures from POST /v1/submit: no input may panic it or yield a
# bond between atoms that do not exist. CI runs this as a smoke step.
fuzz-smiles:
	$(GO) test ./internal/chem/ -fuzz=FuzzParseSMILES -fuzztime=30s -fuzzminimizetime=5s

# Short coverage-guided fuzz of the POST /v1/submit handler over a
# stub scorer and stub docking: no body may panic it (a recovered panic
# answers 500) or draw a status outside 202/400/413/422/429/503. CI
# runs this as a smoke step.
fuzz-submit:
	$(GO) test ./internal/serve/ -run '^$$' -fuzz=FuzzSubmitBody -fuzztime=30s -fuzzminimizetime=5s

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

# CPU profile of the f64 job on the repro grid (BenchmarkRunJobBatched:
# 24 poses, batch 8, 2 ranks) — the width the campaign_units and
# serve_http workloads score at — and its 15 hottest functions.
profile-f64:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/screen/ -run '^$$' -bench 'BenchmarkRunJobBatched$$' -benchtime 3s -cpu 2 \
		-o $(PROFILE_DIR)/screen.test -cpuprofile $(PROFILE_DIR)/f64.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/screen.test $(PROFILE_DIR)/f64.cpu.prof

# CPU profile of docking one prepared compound at the service's
# settings (BenchmarkDockCompound: DockCompounds with 3 poses, 30
# Monte-Carlo steps, 4 restarts on protease1 — what the benchmark's
# dock.compound_ms measures) and its 15 hottest functions. Expect
# dock.(*pairScratch).empiricalTerms first (~55 % flat, most of it the
# distance pass), then tensor.expAVX2 (~11 %; absent on a CPU without
# AVX2 and FMA, where tensor.Exp takes its place) and tensor.Exp
# (~7 %, the pocket oracle's per-atom calls).
profile-dock:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/screen/ -run '^$$' -bench 'BenchmarkDockCompound$$' -benchtime 3s -cpu 2 \
		-o $(PROFILE_DIR)/screen.test -cpuprofile $(PROFILE_DIR)/dock.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/screen.test $(PROFILE_DIR)/dock.cpu.prof

# CPU profile of the campaign control plane (BenchmarkDispatchClaimAck:
# one Claim and one Complete per op on a 1024-unit campaign over the
# filesystem lease store, a coordinator SyncDispatch every 8 ops) and
# its 15 hottest functions. Expect internal/runtime/syscall.Syscall6
# first (about half, flat: creating, fsyncing and renaming the temp
# files of claims, acks and manifest saves), then encoding/json's
# appendIndent (the coordinator's MarshalIndent of the whole manifest)
# and decodeState.object (the store's decode, once per manifest
# change, ~15 % cumulative).
profile-campaign:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/campaign/ -run '^$$' -bench 'BenchmarkDispatchClaimAck$$' -benchtime 2000x -cpu 2 \
		-o $(PROFILE_DIR)/campaign.test -cpuprofile $(PROFILE_DIR)/campaign.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/campaign.test $(PROFILE_DIR)/campaign.cpu.prof

# Ensemble-engine win: featurize-once/score-N consensus scoring vs N
# independent single-scorer runs over the same poses.
bench-consensus:
	$(GO) test ./internal/screen/ -run xxx -bench 'BenchmarkConsensus' -benchtime 2s | tee bench_consensus.txt

# Precision microbenchmarks: the f64/f32 kernel pairs as plain `go
# test -bench` runs (packed GEMM, Coherent PredictBatch, RunJob).
bench-precision:
	$(GO) test ./internal/tensor/ ./internal/fusion/ -run xxx -bench 'BenchmarkMatMulPacked|BenchmarkPredictBatchInto' -benchtime 1s | tee bench_precision.txt
	$(GO) test ./internal/screen/ -run xxx -bench 'BenchmarkRunJobBatched' -benchtime 2s | tee -a bench_precision.txt

# Featurization microbenchmarks: Voxelize/BuildGraph per pose, cached
# vs uncached, repro + paper grids (internal/featurize/bench_test.go).
bench-featurize:
	$(GO) test ./internal/featurize/ -run xxx -bench . -benchtime 1s | tee bench_featurize.txt

# Paper tables and figures as machine-readable JSON (smoke budget;
# pass FULL=1 for the full budget).
bench-report:
	$(GO) run ./cmd/benchreport $(if $(FULL),-full) -json > bench_report.json
	@echo "wrote bench_report.json"

# One-iteration pass over every benchmark in the repo so benchmark
# code cannot rot; CI runs this on every push. BENCH_SCALE=smoke drops
# the paper-table benchmarks to the smoke budget — this is a
# compile-and-run rot check, not a measurement.
bench-smoke:
	BENCH_SCALE=smoke $(GO) test -run=NONE -bench=. -benchtime=1x ./...

bench: bench-screen bench-consensus bench-featurize bench-precision bench-report

clean:
	rm -f bench_screen.txt bench_consensus.txt bench_featurize.txt bench_precision.txt bench_report.json

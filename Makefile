# Development targets for the sma reproduction. Everything is standard
# library only; `make check` is the full pre-merge gate CI runs.

GO ?= go

.PHONY: all build test check vet smavet smavet-baseline race fuzz-smoke fmt serve-smoke chaos-smoke bench-smoke pyramid-smoke scaling-smoke cluster-smoke recovery-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full gate: formatting, go vet, the project-specific smavet
# static-analysis suite, and the unit tests under the race detector.
check:
	./scripts/check.sh

vet:
	$(GO) vet ./...

# smavet: the project-specific static analyzers (cmd/smavet). Exits
# non-zero on any gating finding; see docs/STATIC_ANALYSIS.md.
smavet:
	$(GO) run ./cmd/smavet ./...

# smavet-baseline: refreeze the warn-severity debt into .smavet-baseline
# (the ratchet file `make smavet` gates against). Error findings are
# never frozen — the target fails if any exist. Commit the result.
smavet-baseline:
	$(GO) run ./cmd/smavet -write-baseline ./...

race:
	$(GO) test -race ./...

# fuzz-smoke: a short -fuzz pass over the binary-format readers, the
# streaming scheduler, the search's differential oracle, the block
# kernel's screen, the semi-fluid map and serving admission, enough to
# catch regressions in the parsers' bounds handling, the pipeline's
# ordering/caching invariants, every search surface's bit-identity with
# its oracle on random parameters, the screen's exactness (every bound
# below the reference ε, output identical with the screen off), the
# map's identity with its naive evaluation and admission's caps
# (whatever is admitted fits them, with one verdict on every role)
# without tying up CI. Corpus finds are kept under the packages' testdata.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReadPGM -fuzztime=$(FUZZTIME) ./internal/grid
	$(GO) test -run=^$$ -fuzz=FuzzReadArea -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzPipelineScheduling -fuzztime=$(FUZZTIME) ./internal/stream
	$(GO) test -run=^$$ -fuzz=FuzzTileScheduling -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzKernelOracle -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzScreenBound -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzSemiMap -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzAdmission -fuzztime=$(FUZZTIME) ./internal/server

# serve-smoke: end-to-end smoke of the HTTP serving layer — real
# smaserve process on a random port, verified concurrent load via
# smaload, metrics scrape, graceful SIGTERM drain (docs/SERVER.md).
serve-smoke:
	sh scripts/serve_smoke.sh

# chaos-smoke: end-to-end chaos test of the fault-tolerant serving path —
# real smaserve process driven through seeded fault schedules by
# smachaos, asserting the degraded-mode contract (docs/ROBUSTNESS.md).
chaos-smoke:
	sh scripts/chaos_smoke.sh

# bench-smoke: short-form kernel microbenchmarks plus the tracking
# throughput experiment (smabench -only track), gated by
# eval.TrackThroughput.Check: bit-identity and a >= 5x median serial
# speedup over the naive reference kernel (docs/PERFORMANCE.md).
bench-smoke:
	sh scripts/bench_smoke.sh

# pyramid-smoke: the summed-window search experiment (smabench -only
# pyramid), gated by eval.PyramidResult.Check: byte-identity with its
# oracle, >= 99.7% argmin agreement with the block kernel, a >= 3x
# speedup at NZS=10, and <= 0.1 grid-unit drift at the fixture tracers
# (docs/PERFORMANCE.md §9).
pyramid-smoke:
	$(GO) run ./cmd/smabench -only pyramid -size 96 -out /tmp

# scaling-smoke: the strong/weak scaling study of the tile-scheduled
# parallel driver (smabench -only scaling), gated by eval.Scaling.Check:
# bit-identity, 1-worker scheduler overhead, and — on hosts with >= 4
# cores — parallel beating serial at >= 4 workers (docs/PERFORMANCE.md §8).
scaling-smoke:
	$(GO) run ./cmd/smabench -only scaling -size 64 -out /tmp

# cluster-smoke: end-to-end smoke of the distributed job plane — a real
# coordinator over two worker processes, multi-node load, injected
# node-fault rounds with exact Expect accounting, a SIGKILL-worker
# drill, and the process-mode scaling ladder gated by
# eval.ClusterScaling.Check: bit-identity and (on >= 4 cores) the widest
# rung's speedup (docs/CLUSTER.md).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# recovery-smoke: end-to-end smoke of the durable job plane — a real
# smaserve killed dead (exit 137) mid-job and restarted over the same
# -data-dir, plus the SIGKILL-coordinator drill (smabench -only
# recovery, gated by eval.Recovery.Check) — every resumed job
# byte-identical to an uninterrupted run (docs/ROBUSTNESS.md).
recovery-smoke:
	sh scripts/recovery_smoke.sh

fmt:
	gofmt -w .

#!/bin/sh
# The full pre-merge gate: formatting, go vet, the smavet project
# analyzers, and the test suite under the race detector. Run from the
# repository root (make check does).
set -eu

fail=0

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:"
    echo "$unformatted"
    fail=1
fi

echo "== go vet"
go vet ./... || fail=1

# The smavet stage emits the machine-readable report (CI uploads it as an
# artifact) and gates on it: error findings and warn findings not frozen
# in .smavet-baseline fail; stale baseline entries only warn on stderr.
echo "== smavet (static analysis, JSON report + baseline gate)"
if go run ./cmd/smavet -json ./... > smavet.json; then
    echo "smavet: clean (report in smavet.json)"
else
    echo "smavet: findings (report in smavet.json):"
    go run ./cmd/smavet ./... || true
    fail=1
fi

echo "== go test -race"
go test -race ./... || fail=1

# The repository benchmark (smaperf/README.md) is its own module, so the
# suite above never builds it; build it and run its short tests here so
# a core API change cannot break the benchmark unnoticed.
echo "== smaperf build + short tests"
{ go -C smaperf build -o /dev/null . && go -C smaperf test -short .; } || fail=1

# The conformance lock for the streaming pipeline (docs/PIPELINE.md):
# golden motion-field fixtures plus streaming-vs-pairwise bit-equivalence
# under the race detector, run by name so a -run filter in the suite
# above can never silently drop them.
echo "== golden + stream equivalence (-race)"
go test -race -run 'Golden|Stream|TrackStats|PrepareFrame' \
    ./internal/core ./internal/stream ./internal/sequence || fail=1

# The search kernel's differential oracle and tile-scheduler properties
# (docs/PERFORMANCE.md §6–7, §9): the oracle's named tests and the seed
# corpus of FuzzKernelOracle (internal/core/oracle_test.go) hold every
# search surface — every block shape and worker count, the early exit
# and the screen off, the summed-window search at every worker count —
# bit-identical to its oracle; the lower-bound screen sound for every
# (pixel, hypothesis) and pruning at its floor, the summed-window search
# in argmin agreement with the reference and cancellable, the
# work-stealing scheduler leak- and race-free, the semi-fluid map
# byte-identical to its naive oracle at every worker count and
# cancellable mid-build — run by name under the race detector so a -run
# filter above can never silently drop them.
echo "== search kernel + tile scheduler (-race)"
go test -race -run 'Kernel|Block|EarlyExit|Screen|Batch|Tile|Summed|PyramidAccuracy|SemiMap' \
    ./internal/core || fail=1

# The robustness lock (docs/ROBUSTNESS.md): fault injection, degraded-
# mode counters/bit-identity, pair isolation, pool drain/TTL races,
# durable restore/resume, the /metrics exposition goldens on both roles,
# and admission (one verdict on every role, the semi-fluid map and spec
# body caps), run by name under the race detector for the same reason as
# above.
echo "== fault injection + degraded mode + durability (-race)"
go test -race ./internal/fault || fail=1
go test -race -run 'Fault|Degraded|Chaos|Skip|Retry|FrameError|Pool|TTL|Expired|Truncat|Durable|Exposition|Admission|BodyLimit' \
    ./internal/stream ./internal/server ./internal/cluster ./internal/ingest ./internal/grid ./internal/metrics || fail=1

# The BENCH gates (docs/PERFORMANCE.md §4, §8, §9): each smabench run
# below writes its /tmp/BENCH_<key>.json and exits non-zero when the
# result fails its Check in internal/eval, where every bound is a named
# constant. bench_smoke.sh adds the kernel microbenchmarks to the track
# run.
echo "== bench smoke"
sh scripts/bench_smoke.sh || fail=1

echo "== scaling smoke"
go run ./cmd/smabench -only scaling -size 64 -out /tmp || fail=1

echo "== pyramid smoke"
go run ./cmd/smabench -only pyramid -size 96 -out /tmp || fail=1

echo "== stream throughput smoke"
go run ./cmd/smabench -only stream -size 32 -frames 4 -out /tmp || fail=1

# End-to-end smoke of the HTTP serving layer (docs/SERVER.md): real
# smaserve process, verified concurrent load, metrics scrape, graceful
# SIGTERM drain.
echo "== serve smoke"
sh scripts/serve_smoke.sh || fail=1

# End-to-end chaos smoke (docs/ROBUSTNESS.md): real smaserve process
# driven through seeded fault schedules, asserting exact degraded-mode
# counters, bit-identical surviving pairs, and no goroutine leaks.
echo "== chaos smoke"
sh scripts/chaos_smoke.sh || fail=1

# End-to-end cluster smoke (docs/CLUSTER.md): coordinator over two real
# worker processes — multi-node load, injected node faults with exact
# Expect accounting, a SIGKILL-worker drill, and the process-mode
# scaling ladder gated by ClusterScaling.Check.
echo "== cluster smoke"
sh scripts/cluster_smoke.sh || fail=1

# End-to-end recovery smoke (docs/ROBUSTNESS.md): a durable smaserve
# killed dead mid-job and restarted over the same -data-dir, plus the
# SIGKILL-coordinator shard-checkpoint drill gated by Recovery.Check —
# resumed output must be byte-identical to an uninterrupted run.
echo "== recovery smoke"
sh scripts/recovery_smoke.sh || fail=1

if [ "$fail" -ne 0 ]; then
    echo "check: FAILED"
    exit 1
fi
echo "check: OK"

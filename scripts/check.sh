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
SMAVET_JSON="${SMAVET_JSON:-smavet.json}"
if go run ./cmd/smavet -json ./... > "$SMAVET_JSON"; then
    echo "smavet: clean (report in $SMAVET_JSON)"
else
    echo "smavet: findings (report in $SMAVET_JSON):"
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

# The search-kernel equivalence wall and tile-scheduler properties
# (docs/PERFORMANCE.md §6–7, §9): the block kernel's differential table,
# every block shape and worker count bit-identical to the reference, the
# early exit invisible, the
# summed-window search byte-identical to its oracle at every worker
# count, in argmin agreement with the reference and cancellable, the
# work-stealing scheduler leak- and race-free, the semi-fluid map
# byte-identical to its naive oracle at every worker count and
# cancellable mid-build — run by name under the race detector so a -run
# filter above can never silently drop them.
echo "== search kernel + tile scheduler (-race)"
go test -race -run 'Kernel|Block|EarlyExit|Batch|Tile|Summed|PyramidAccuracy|SemiMap' \
    ./internal/core || fail=1

# The robustness lock (docs/ROBUSTNESS.md): fault injection, degraded-
# mode counters/bit-identity, pair isolation, pool drain/TTL races, and
# durable restore/resume on both roles, run by name under the race
# detector for the same reason as above.
echo "== fault injection + degraded mode + durability (-race)"
go test -race ./internal/fault || fail=1
go test -race -run 'Fault|Degraded|Chaos|Skip|Retry|FrameError|Pool|TTL|Expired|Truncat|Durable' \
    ./internal/stream ./internal/server ./internal/cluster ./internal/ingest ./internal/grid || fail=1

# The tracking-kernel performance gate (docs/PERFORMANCE.md): short
# microbenchmarks plus the reference-vs-block-kernel throughput
# experiment, failing on any bitwise divergence or a median speedup
# below bench_smoke.sh's floor.
echo "== bench smoke"
sh scripts/bench_smoke.sh || fail=1

# The scaling gate (docs/PERFORMANCE.md §8): strong/weak scaling of the
# tile-scheduled parallel driver; on hosts with ≥4 cores it also demands
# parallel beats serial at ≥4 workers.
echo "== scaling smoke"
sh scripts/scaling_smoke.sh || fail=1

# The pyramid-option gate (docs/PERFORMANCE.md §9): the summed-window
# search must stay byte-identical to its oracle, agree with the block
# kernel's argmin on >= 99.7% of pixels, beat it 3x at NZS=10, and hold
# the fixture fields within 0.1 grid units.
echo "== pyramid smoke"
sh scripts/pyramid_smoke.sh || fail=1

echo "== stream throughput smoke"
go run ./cmd/smabench -only stream -size 32 -frames 4 \
    -bench-out /tmp/BENCH_stream.json || fail=1

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
# scaling ladder gated on bit-identity (speedup gate on >= 4 cores).
echo "== cluster smoke"
sh scripts/cluster_smoke.sh || fail=1

# End-to-end recovery smoke (docs/ROBUSTNESS.md): a durable smaserve
# killed dead mid-job and restarted over the same -data-dir, plus the
# SIGKILL-coordinator shard-checkpoint drill — resumed output must be
# byte-identical to an uninterrupted run.
echo "== recovery smoke"
sh scripts/recovery_smoke.sh || fail=1

if [ "$fail" -ne 0 ]; then
    echo "check: FAILED"
    exit 1
fi
echo "check: OK"

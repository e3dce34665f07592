#!/bin/sh
# bench-smoke: the tracking-kernel performance gate (docs/PERFORMANCE.md).
# Runs the kernel microbenchmarks in short form, then the
# eval.TrackThroughputExperiment via smabench, and fails if the block
# kernel is not bit-identical to the retained naive kernel or its median
# serial speedup falls below the floor.
set -eu

SIZE="${BENCH_SMOKE_SIZE:-48}"
OUT="${BENCH_SMOKE_OUT:-/tmp/BENCH_track.json}"
# The floor sits below the 7.7-8.7x medians five runs of this gate
# measured at size 48 on a 2-vCPU Xeon (docs/PERFORMANCE.md §6); the
# previous kernel was gated at 2.2x.
MIN_SPEEDUP=5.0

echo "== kernel microbenchmarks (short)"
go test -run '^$' -bench 'BenchmarkScoreReference|BenchmarkPrepareBlock|BenchmarkSearchTile' \
    -benchtime 50ms ./internal/core
go test -run '^$' -bench 'BenchmarkFactoredSolve' -benchtime 50ms ./internal/la

echo "== track throughput experiment"
go run ./cmd/smabench -only track -size "$SIZE" -track-out "$OUT"

# Gate on the JSON the experiment just wrote. The experiment itself
# errors on any bitwise mismatch, so bit_identical doubles as a sanity
# check that we are reading the file we think we are. The parallel gate
# (parallel must beat serial when the tile driver has ≥4 workers AND the
# host has ≥4 cores) is conditional on gomaxprocs: on a 1- or 2-core
# host the parallel figures measure oversubscription, not the scheduler.
awk -v min="$MIN_SPEEDUP" '
    /"speedup_vs_reference"/          { gsub(/[,"]/, ""); speedup = $2 }
    /"speedup_parallel_vs_reference"/ { gsub(/[,"]/, ""); pspeedup = $2 }
    /"workers"/                       { gsub(/[,"]/, ""); workers = $2 }
    /"gomaxprocs"/                    { gsub(/[,"]/, ""); procs = $2 }
    /"bit_identical"/                 { gsub(/[,"]/, ""); bitid = $2 }
    END {
        if (bitid != "true") {
            printf "bench-smoke: bit_identical = %s\n", bitid; exit 1
        }
        if (speedup + 0 < min + 0) {
            printf "bench-smoke: speedup %.2fx below the %.1fx gate\n", speedup, min; exit 1
        }
        if (workers + 0 >= 4 && procs + 0 >= 4 && pspeedup + 0 <= speedup + 0) {
            printf "bench-smoke: parallel speedup %.2fx does not beat serial %.2fx at %d workers on %d cores\n", \
                pspeedup, speedup, workers, procs; exit 1
        }
        printf "bench-smoke: OK (speedup %.2fx >= %.1fx, parallel %.2fx @ %d workers/%d cores, bit-identical)\n", \
            speedup, min, pspeedup, workers, procs
    }' "$OUT"

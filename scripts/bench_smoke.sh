#!/bin/sh
# bench-smoke: the tracking-kernel performance gate (docs/PERFORMANCE.md).
# Runs the kernel microbenchmarks in short form — BenchmarkSearch64 once
# per search shape of the smaperf workloads, the summed-window search
# included — then the
# eval.TrackThroughputExperiment via smabench, which writes
# /tmp/BENCH_track.json and exits non-zero if TrackThroughput.Check fails:
# the block kernel not bit-identical to the retained naive kernel, or its
# median serial speedup below eval.MinTrackSpeedup.
set -eu

echo "== kernel microbenchmarks (short)"
go test -run '^$' -bench 'BenchmarkScoreReference|BenchmarkPrepareBlock|BenchmarkSearchTile' \
    -benchtime 50ms ./internal/core
go test -run '^$' -bench 'BenchmarkSearch64' -benchtime 1x ./internal/core
go test -run '^$' -bench 'BenchmarkFactoredSolve' -benchtime 50ms ./internal/la

echo "== track throughput experiment"
go run ./cmd/smabench -only track -size 48 -out /tmp

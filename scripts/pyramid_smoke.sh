#!/bin/sh
# pyramid-smoke: the pyramid option's gate (docs/PERFORMANCE.md §9).
# Runs eval.PyramidExperiment via smabench and fails if the summed-window
# search is not byte-identical to its oracle, if its argmin agrees with
# the block kernel's on fewer than 99.7% of pixels anywhere in the sweep
# or on the fixtures, if its speedup over the block kernel at NZS=10 falls
# below 3x, or if its field drifts from the block kernel's by more than
# 0.1 grid units at the fixture tracers.
set -eu

SIZE="${PYRAMID_SMOKE_SIZE:-96}"
OUT="${PYRAMID_SMOKE_OUT:-/tmp/BENCH_pyramid.json}"
MIN_SPEEDUP="${PYRAMID_SMOKE_MIN_SPEEDUP:-3.0}"
MAX_RMSE="${PYRAMID_SMOKE_MAX_RMSE:-0.1}"

echo "== pyramid search experiment"
go run ./cmd/smabench -only pyramid -size "$SIZE" -pyramid-out "$OUT"

# Gate on the JSON the experiment just wrote. The experiment itself
# errors on a kernel-vs-oracle mismatch, so bit_identical doubles as a
# sanity check that we are reading the file we think we are. The
# correctness gates (bit-identity, agreement, RMSE) are unconditional;
# the speedup gate is algorithmic — O(1) instead of O(template) work per
# hypothesis, not parallelism — so it holds on any host.
awk -v min="$MIN_SPEEDUP" -v maxr="$MAX_RMSE" '
    /"bit_identical"/    { gsub(/[,"]/, ""); bitid = $2 }
    /"speedup_at_nzs10"/ { gsub(/[,"]/, ""); speedup = $2 }
    /"rmse_at_nzs10"/    { gsub(/[,"]/, ""); rmse = $2 }
    /"fig5_rmse"/        { gsub(/[,"]/, ""); fig5 = $2 }
    /"fig6_rmse"/        { gsub(/[,"]/, ""); fig6 = $2 }
    /"min_argmin_agreement"/ { gsub(/[,"]/, ""); agree = $2 }
    END {
        if (bitid != "true") {
            printf "pyramid-smoke: bit_identical = %s\n", bitid; exit 1
        }
        if (agree == "" || agree + 0 < 0.997) {
            printf "pyramid-smoke: argmin agreement %s below the 0.997 gate\n", agree; exit 1
        }
        if (speedup + 0 < min + 0) {
            printf "pyramid-smoke: speedup %.2fx at NZS=10 below the %.1fx gate\n", speedup, min; exit 1
        }
        if (rmse + 0 > maxr + 0) {
            printf "pyramid-smoke: RMSE %.4f at NZS=10 above the %.2f gate\n", rmse, maxr; exit 1
        }
        if (fig5 + 0 > maxr + 0 || fig6 + 0 > maxr + 0) {
            printf "pyramid-smoke: fixture RMSE fig5=%.4f fig6=%.4f above the %.2f gate\n", fig5, fig6, maxr; exit 1
        }
        printf "pyramid-smoke: OK (speedup %.2fx >= %.1fx at NZS=10, RMSE %.4f, fig5 %.4f, fig6 %.4f, agreement %.4f, bit-identical)\n", \
            speedup, min, rmse, fig5, fig6, agree
    }' "$OUT"

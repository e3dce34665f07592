package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sma/internal/synth"
)

// Kernel microbenchmarks: optimized (hoisted) vs reference (naive) paths.
// The eval.TrackThroughputExperiment measures the same contrast end to end
// and records it in BENCH_track.json; these isolate the per-call costs.

func benchPrep(b *testing.B, p Params) (*Prepared, *SemiMap) {
	b.Helper()
	s := synth.Hurricane(32, 32, 77)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
	if err != nil {
		b.Fatal(err)
	}
	return prep, BuildSemiMap(prep)
}

func BenchmarkScoreReference(b *testing.B) {
	prep, sm := benchPrep(b, testParams())
	tr := newTracker(prep, sm, Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.scoreReference(16, 16, 1, 1)
	}
}

func BenchmarkPreparePixel(b *testing.B) {
	prep, sm := benchPrep(b, testParams())
	tr := newTracker(prep, sm, Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.preparePixel(16, 16)
	}
}

func BenchmarkTrackPixel(b *testing.B) {
	run := func(b *testing.B, p Params, opt Options) {
		prep, sm := benchPrep(b, p)
		tr := newTracker(prep, sm, opt)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.trackPixel(16, 16)
		}
	}
	b.Run("continuous", func(b *testing.B) { run(b, contParams(), Options{}) })
	b.Run("semifluid", func(b *testing.B) { run(b, testParams(), Options{}) })
	b.Run("semifluid-robust", func(b *testing.B) { run(b, testParams(), Options{Robust: true}) })
	b.Run("reference", func(b *testing.B) {
		prep, sm := benchPrep(b, testParams())
		tr := newTracker(prep, sm, Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.trackPixelReference(16, 16)
		}
	})
}

// BenchmarkScoreHypLanes isolates one scoreHypLanes call at each width.
// The b-pass runs per lane, so the width shares only the LU replay and
// the call overhead between lanes.
func BenchmarkScoreHypLanes(b *testing.B) {
	prep, sm := benchPrep(b, testParams())
	for _, bw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width%d", bw), func(b *testing.B) {
			tr := newTracker(prep, sm, Options{batchHyps: bw})
			tr.preparePixel(16, 16)
			lhx := make([]int, bw)
			lhy := make([]int, bw)
			for l := 0; l < bw; l++ {
				lhx[l] = l%3 - 1
				lhy[l] = l/3 - 1
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				best := incumbent{eps: math.Inf(1)}
				tr.scoreHypLanes(16, 16, lhx, lhy, false, &best)
			}
		})
	}
}

// BenchmarkTrackPixelBatch sweeps the lane width over the full
// per-pixel search (prepare + lane sweep).
func BenchmarkTrackPixelBatch(b *testing.B) {
	prep, sm := benchPrep(b, testParams())
	for _, bw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("width%d", bw), func(b *testing.B) {
			tr := newTracker(prep, sm, Options{batchHyps: bw})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.trackPixel(16, 16)
			}
		})
	}
}

func BenchmarkTrackPrepared(b *testing.B) {
	prep, sm := benchPrep(b, testParams())
	b.Run("optimized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TrackPrepared(prep, sm, Options{})
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			TrackPreparedReference(prep, sm, Options{})
		}
	})
}

// BenchmarkSearch64 times the whole hypothesis search of one 64² hurricane
// pair on one worker, with geometry and the semi-fluid map prepared
// outside the loop — the search kernels of the three smaperf workloads:
// the serving default (ScaledParams, Fsemi), the Luis jobs (exhaustive
// Fcont) and the GOES-9 cluster jobs (the pyramid option's summed-window
// search).
func BenchmarkSearch64(b *testing.B) {
	s := synth.Hurricane(64, 64, 7)
	pair := Monocular(s.Frame(0), s.Frame(1))
	run := func(b *testing.B, p Params, opt Options) {
		prep, err := Prepare(pair, p)
		if err != nil {
			b.Fatal(err)
		}
		sm := BuildSemiMap(prep)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("scaled-semimap", func(b *testing.B) { run(b, ScaledParams(), Options{}) })
	b.Run("luis", func(b *testing.B) { run(b, LuisParams(), Options{}) })
	b.Run("goes9-summed", func(b *testing.B) {
		run(b, GOES9Params(), Options{Pyramid: PyramidOptions{Levels: 3}})
	})
}

package core

import (
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

// BenchmarkScoreHypLanes isolates the lane b-pass at each width: the
// contrast against width 1 is the invariant-load amortization the lanes
// exist for.
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

package core

import (
	"context"
	"testing"

	"sma/internal/synth"
)

// Kernel microbenchmarks: the block kernel vs the reference (naive) path.
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

// BenchmarkPrepareBlock times the hypothesis-invariant half of one
// block: the padded geometry and each pixel's factored A.
func BenchmarkPrepareBlock(b *testing.B) {
	prep, sm := benchPrep(b, testParams())
	k := newBlockKernel(prep, sm, Options{}, padNormals(prep), windowOrder(fullWindow(prep.P)), blockSide, blockSide)
	t := tileRect{X0: 8, Y0: 8, X1: 8 + blockSide, Y1: 8 + blockSide}
	k.searchTile(nil, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.prepareBlock(t)
	}
}

// BenchmarkSearchTile times the whole search of one interior block — the
// prepare half plus every hypothesis's term planes and per-pixel scoring
// — per model and per option.
func BenchmarkSearchTile(b *testing.B) {
	run := func(b *testing.B, p Params, opt Options) {
		prep, sm := benchPrep(b, p)
		k := newBlockKernel(prep, sm, opt, padNormals(prep), windowOrder(fullWindow(p)), blockSide, blockSide)
		t := tileRect{X0: 8, Y0: 8, X1: 8 + blockSide, Y1: 8 + blockSide}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.searchTile(nil, t)
		}
	}
	b.Run("continuous", func(b *testing.B) { run(b, contParams(), Options{}) })
	b.Run("semifluid", func(b *testing.B) { run(b, testParams(), Options{}) })
	b.Run("semifluid-robust", func(b *testing.B) { run(b, testParams(), Options{Robust: true}) })
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
// search). screened/op counts the (pixel, hypothesis) pairs the block
// kernel's lower bounds skipped, l1skip/op the (block, hypothesis) passes
// level 1 skipped whole and tied/op the pairs level 3 dropped as ties
// (all 0 on the summed-window search).
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
		var c screenCounts
		for i := 0; i < b.N; i++ {
			res, err := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, 1)
			if err != nil {
				b.Fatal(err)
			}
			c.add(res.screenCounts)
		}
		n := float64(b.N)
		b.ReportMetric(float64(c.screened)/n, "screened/op")
		b.ReportMetric(float64(c.l1skip)/n, "l1skip/op")
		b.ReportMetric(float64(c.tied)/n, "tied/op")
	}
	b.Run("scaled-semimap", func(b *testing.B) { run(b, ScaledParams(), Options{}) })
	b.Run("luis", func(b *testing.B) { run(b, LuisParams(), Options{}) })
	b.Run("goes9-summed", func(b *testing.B) {
		run(b, GOES9Params(), Options{Pyramid: PyramidOptions{Levels: 3}})
	})
}

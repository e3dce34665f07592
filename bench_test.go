// Package sma's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation section. Each bench runs the scaled
// functional experiment on the host and attaches the full-scale modeled
// MP-2 / SGI metrics (seconds, speedups) via b.ReportMetric, so a single
//
//	go test -bench=. -benchmem
//
// regenerates the quantitative content of Tables 1–4 and Figures 3, 4
// and 6. EXPERIMENTS.md records a captured run against the paper's
// numbers.
package sma

import (
	"context"
	"fmt"
	"testing"

	"sma/internal/core"
	"sma/internal/eval"
	"sma/internal/flow"
	"sma/internal/grid"
	"sma/internal/maspar"
	"sma/internal/model"
	"sma/internal/postproc"
	"sma/internal/stereo"
	"sma/internal/synth"
)

// BenchmarkTable2Frederic runs the scaled Frederic experiment (semi-fluid
// stereo tracking on the simulated MP-2) and reports the full-scale
// modeled stage times and speedup of Table 2.
func BenchmarkTable2Frederic(b *testing.B) {
	scene := synth.Hurricane(48, 48, 3)
	i0, i1 := scene.Frame(0), scene.Frame(1)
	pair := core.Pair{I0: i0, I1: i1, Z0: scene.Height(i0), Z1: scene.Height(i1)}
	p := core.ScaledParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := maspar.MustNew(maspar.ScaledConfig(8, 8))
		if _, err := core.TrackMasPar(m, pair, p, core.Options{}, maspar.RasterReadout); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	t, err := eval.Table2()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(t.ModeledTotal.Seconds(), "mp2-total-s")
	b.ReportMetric(t.SeqModeled.Hours()/24, "sgi-days")
	b.ReportMetric(t.SpeedupModel, "speedup")
}

// BenchmarkTable4GOES9 runs the scaled GOES-9 experiment (continuous
// model, monocular) and reports Table 4's full-scale modeled metrics.
func BenchmarkTable4GOES9(b *testing.B) {
	scene := synth.Thunderstorm(48, 48, 5)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	p := core.Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := maspar.MustNew(maspar.ScaledConfig(8, 8))
		if _, err := core.TrackMasPar(m, pair, p, core.Options{}, maspar.RasterReadout); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	t, err := eval.Table4()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(t.ModeledTotal.Minutes(), "mp2-total-min")
	b.ReportMetric(t.SeqModeled.Hours(), "sgi-hours")
	b.ReportMetric(t.SpeedupModel, "speedup")
}

// BenchmarkLuisPair models §5's Hurricane Luis throughput (490 frames at
// ≈6 min/pair, speedup > 150) while measuring one scaled pair on the host.
func BenchmarkLuisPair(b *testing.B) {
	scene := synth.Hurricane(48, 48, 7)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	p := core.Params{NS: 2, NZS: 2, NZT: 2, NST: 2, NSS: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrackSequential(pair, p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	l, err := eval.Luis()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(l.PerPairModel.Minutes(), "mp2-pair-min")
	b.ReportMetric(l.SpeedupModel, "speedup")
}

// BenchmarkFigure4Template measures the per-correspondence cost for the
// paper's z-template sweep (Figure 4), one sub-benchmark per window size.
func BenchmarkFigure4Template(b *testing.B) {
	sgi := model.DefaultSGI()
	for _, wsize := range []int{11, 31, 51, 71, 91, 111, 131} {
		b.Run(fmt.Sprintf("T%dx%d", wsize, wsize), func(b *testing.B) {
			p := core.FredericParams()
			p.NZT = wsize / 2
			size := wsize + 16
			scene := synth.Hurricane(size, size, 7)
			prep, err := core.Prepare(core.Monocular(scene.Frame(0), scene.Frame(1)), p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ScoreOnce(prep, size/2, size/2)
			}
			b.StopTimer()
			oc := core.CountOps(p, 2)
			perCorr := float64(sgi.PixelTime(oc)) / float64(p.Hypotheses())
			b.ReportMetric(perCorr/1e6, "sgi-ms/corr")
		})
	}
}

// BenchmarkFigure6Step measures one timestep of the GOES-9 thunderstorm
// tracking that Figure 6 visualizes.
func BenchmarkFigure6Step(b *testing.B) {
	scene := synth.Thunderstorm(64, 64, 9)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	p := core.Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.TrackSequential(pair, p, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindBarbPipeline measures the full §5.1 pipeline: stereo
// synthesis, ASA surface recovery and semi-fluid tracking, reporting the
// achieved barb accuracy (paper: RMSE < 1 px).
func BenchmarkWindBarbPipeline(b *testing.B) {
	b.ReportAllocs()
	var last *eval.BarbResult
	for i := 0; i < b.N; i++ {
		r, err := eval.WindBarbExperiment(64, 5)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(last.RMSE, "barb-rmse-px")
	}
}

// BenchmarkReadout compares the two §4.2 neighborhood read-out schemes
// with real data movement on the simulator (Figure 3's snake vs the
// raster-scan scheme the paper adopted).
func BenchmarkReadout(b *testing.B) {
	for _, scheme := range []maspar.FetchScheme{maspar.SnakeReadout, maspar.RasterReadout} {
		b.Run(scheme.String(), func(b *testing.B) {
			m := maspar.MustNew(maspar.ScaledConfig(8, 8))
			g := grid.New(32, 32)
			for i := range g.Data {
				g.Data[i] = float32(i)
			}
			mp, err := maspar.NewHierarchical(m, 32, 32)
			if err != nil {
				b.Fatal(err)
			}
			img, err := maspar.Distribute(m, mp, g)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if scheme == maspar.SnakeReadout {
					maspar.GatherSnake(img, 3)
				} else {
					maspar.GatherRaster(img, 3)
				}
			}
			b.StopTimer()
			full := maspar.MustNew(maspar.DefaultConfig())
			fullMap, err := maspar.NewHierarchical(full, 512, 512)
			if err != nil {
				b.Fatal(err)
			}
			c, err := maspar.FetchCost(fullMap, 60, scheme)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(full.Cfg.Time(c).Seconds(), "mp2-fetch-s")
		})
	}
}

// BenchmarkDataMapping compares the 2-D hierarchical folding against
// cut-and-stack (§3.2) by modeled communication time of a Frederic
// template fetch.
func BenchmarkDataMapping(b *testing.B) {
	cfg := maspar.DefaultConfig()
	m := maspar.MustNew(cfg)
	hier, err := maspar.NewHierarchical(m, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	cut, err := maspar.NewCutStack(m, 512, 512)
	if err != nil {
		b.Fatal(err)
	}
	maps := map[string]maspar.Mapping{
		"hierarchical": hier,
		"cutstack":     cut,
	}
	for name, mp := range maps {
		b.Run(name, func(b *testing.B) {
			var c maspar.Cost
			for i := 0; i < b.N; i++ {
				var err error
				if c, err = maspar.FetchCost(mp, 60, maspar.RasterReadout); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cfg.Time(c).Seconds(), "mp2-fetch-s")
			b.ReportMetric(float64(c.XNetShifts), "xnet-shifts")
		})
	}
}

// BenchmarkSegmentation models §4.3's memory/recompute trade-off: the
// Frederic run under shrinking PE memory budgets.
func BenchmarkSegmentation(b *testing.B) {
	for _, kb := range []int{64, 8} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				cfg := maspar.DefaultConfig()
				cfg.MemPerPE = kb * 1024
				m := maspar.MustNew(cfg)
				st, _, err := core.ModelRun(m, 512, 512, core.FredericParams(), 4, maspar.RasterReadout)
				if err != nil {
					b.Fatal(err)
				}
				total = st.Total().Seconds()
			}
			b.ReportMetric(total, "mp2-total-s")
		})
	}
}

// BenchmarkBaselines measures the comparison estimators on the multilayer
// scene: Horn–Schunck (related work [2]) and rigid block matching.
func BenchmarkBaselines(b *testing.B) {
	ml := synth.NewMultiLayer(64, 64, 21)
	f0, f1 := ml.Frame(0), ml.Frame(1)
	b.Run("hornschunck", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := flow.HornSchunck(f0, f1, flow.DefaultHSConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blockmatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := flow.BlockMatch(f0, f1, flow.DefaultBMConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkASAStereo measures the Automatic Stereo Analysis substrate.
func BenchmarkASAStereo(b *testing.B) {
	scene := synth.Hurricane(96, 96, 11)
	left := scene.Frame(0)
	z := left.GaussianBlur(3)
	z.Apply(func(v float32) float32 { return v * 0.02 })
	right := synth.StereoPair(left, z)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stereo.Estimate(left, right, stereo.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSemiMapBuild isolates the semi-fluid template-mapping
// precompute of §4.1 on one worker: the serving default (ScaledParams)
// at 64² and 128², and the Frederic search (NZS = 6) on a reduced image.
func BenchmarkSemiMapBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
		p    core.Params
	}{
		{"scaled64", 64, core.ScaledParams()},
		{"scaled128", 128, core.ScaledParams()},
		{"frederic64", 64, core.FredericParams()},
	} {
		b.Run(c.name, func(b *testing.B) {
			scene := synth.Hurricane(c.size, c.size, 13)
			prep, err := core.Prepare(core.Monocular(scene.Frame(0), scene.Frame(1)), c.p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				semiMapSink = core.BuildSemiMap(prep)
			}
		})
	}
}

// semiMapSink keeps BenchmarkSemiMapBuild's result live.
var semiMapSink *core.SemiMap

// BenchmarkPyramidVsFlat compares the summed-window search the pyramid
// option selects against the block kernel's exhaustive search over the
// same ±8 window. Both sides include geometry preparation and run on one
// worker.
func BenchmarkPyramidVsFlat(b *testing.B) {
	scene := synth.Hurricane(64, 64, 15)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	b.Run("summedNZS8", func(b *testing.B) {
		p := core.Params{NS: 2, NZS: 8, NZT: 3}
		opt := core.Options{Pyramid: core.PyramidOptions{Levels: 3}}
		for i := 0; i < b.N; i++ {
			prep, err := core.Prepare(pair, p)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := core.TrackPyramidPreparedCtx(context.Background(), prep, opt, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flatNZS8", func(b *testing.B) {
		p := core.Params{NS: 2, NZS: 8, NZT: 3}
		for i := 0; i < b.N; i++ {
			if _, err := core.TrackSequential(pair, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRectangularSearch compares a ±4×±1 rectangular search against
// the ±4 square covering the same x-reach (§2.2's rectangular windows).
func BenchmarkRectangularSearch(b *testing.B) {
	scene := synth.Hurricane(48, 48, 17)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	b.Run("square", func(b *testing.B) {
		p := core.Params{NS: 2, NZS: 4, NZT: 3}
		for i := 0; i < b.N; i++ {
			if _, err := core.TrackSequential(pair, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rect4x1", func(b *testing.B) {
		p := core.Params{NS: 2, NZS: 4, NZT: 3, NZSX: 4, NZSY: 1}
		for i := 0; i < b.N; i++ {
			if _, err := core.TrackSequential(pair, p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHostParallel measures the worker-goroutine driver (results are
// bit-identical to sequential; wall-clock scales with host cores).
func BenchmarkHostParallel(b *testing.B) {
	scene := synth.Hurricane(48, 48, 19)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	p := core.ScaledParams()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prep, err := core.Prepare(pair, p)
				if err != nil {
					b.Fatal(err)
				}
				core.TrackPreparedParallel(prep, core.BuildSemiMap(prep), core.Options{}, workers)
			}
		})
	}
}

// BenchmarkPostproc measures the §6 post-processing passes.
func BenchmarkPostproc(b *testing.B) {
	scene := synth.Hurricane(64, 64, 23)
	i0, i1 := scene.Frame(0), scene.Frame(1)
	p := core.Params{NS: 2, NZS: 3, NZT: 3}
	res, err := core.TrackSequential(core.Monocular(i0, i1), p, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("median", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res.Flow.Median3()
		}
	})
	b.Run("relax", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := postproc.Relax(res.Flow, i0, i1, postproc.DefaultRelaxConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("confidence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := postproc.ConfidenceSmooth(res.Flow, res.Err, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrackSIMD measures the pure-SIMD data path (surfaces fitted on
// the machine, all operands moved by X-net gathers).
func BenchmarkTrackSIMD(b *testing.B) {
	scene := synth.Hurricane(32, 32, 27)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := maspar.MustNew(maspar.ScaledConfig(8, 8))
		if _, err := core.TrackSIMDContinuous(m, pair, p, maspar.RasterReadout); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"context"
	"math"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

// Tests of the in-window coarse-to-fine accelerator (Options.Pyramid):
// the full-radius bit-identity property, RMSE/argmin agreement vs the
// exhaustive search on the Figure 5/6 fixtures, the exhaustive fallback
// on an aliasing scene, and scheduling determinism.

// exhaustiveAgreement returns the fraction of pixels whose displacement
// matches exactly, plus the RMSE between the two fields.
func exhaustiveAgreement(a, b *grid.VectorField) (agree float64, rmse float64) {
	w, h := a.Bounds()
	same, tot := 0, 0
	var s float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			au, av := a.At(x, y)
			bu, bv := b.At(x, y)
			if au == bu && av == bv {
				same++
			}
			du := float64(au - bu)
			dv := float64(av - bv)
			s += du*du + dv*dv
			tot++
		}
	}
	return float64(same) / float64(tot), math.Sqrt(s / float64(tot))
}

// TestPyramidFullRadiusBitIdentical is the property test the smoke gate
// re-checks end to end: a RefineRadius covering the full search window
// makes the level-0 sweep enumerate the exhaustive hypothesis set in the
// exhaustive order, so the result must be bit-identical to TrackPrepared
// — at every batch width and worker count.
func TestPyramidFullRadiusBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"nzs2", Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 0}},
		{"nzs4", Params{NS: 2, NZS: 4, NZT: 2}},
	} {
		s := synth.Hurricane(48, 48, 91)
		pair := Monocular(s.Frame(0), s.Frame(1))
		prep, err := PreparePyramid(pair, tc.p, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := TrackPrepared(prep, nil, Options{})
		for _, batch := range []int{0, 1, 3} {
			for _, workers := range []int{1, 4} {
				opt := Options{batchHyps: batch, Pyramid: PyramidOptions{
					Levels: 3, RefineRadius: 2 * tc.p.SearchRX(),
				}}
				got, st, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Flow.Equal(want.Flow) || !got.Err.Equal(want.Err) {
					t.Fatalf("%s batch=%d workers=%d: full-radius pyramid differs from exhaustive",
						tc.name, batch, workers)
				}
				if st.Levels != 3 {
					t.Fatalf("%s: ran %d levels, want 3", tc.name, st.Levels)
				}
			}
		}
	}
}

// TestPyramidAccuracyVsExhaustiveOnFixtures runs the accelerator on the
// Figure 5 (hurricane wind-barb) and Figure 6 (thunderstorm) fixtures and
// holds it to the acceptance bound: RMSE vs the exhaustive argmin ≤ 0.1
// grid units at the wind-barb tracers, with high exact-argmin agreement
// over the full field — while evaluating far fewer hypotheses per pixel.
func TestPyramidAccuracyVsExhaustiveOnFixtures(t *testing.T) {
	type fixture struct {
		name  string
		scene *synth.Scene
		p     Params
	}
	fig5 := fixture{"fig5-hurricane", synth.Hurricane(64, 64, 7), Params{NS: 2, NZS: 3, NZT: 3, NST: 2, NSS: 0}}
	fig6 := fixture{"fig6-thunderstorm", synth.Thunderstorm(64, 64, 11), Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 0}}
	for _, fx := range []fixture{fig5, fig6} {
		i0, i1 := fx.scene.Frame(0), fx.scene.Frame(1)
		pair := Monocular(i0, i1)
		prep, err := PreparePyramid(pair, fx.p, 3)
		if err != nil {
			t.Fatal(err)
		}
		exh := TrackPrepared(prep, nil, Options{})
		opt := Options{Pyramid: PyramidOptions{Levels: 3}}
		pyr, st, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		barbs := synth.Barbs(i0, 32, 8, 4)
		if rmse := pyr.Flow.RMSEAt(exh.Flow, barbs); rmse > 0.1 {
			t.Fatalf("%s: barb RMSE vs exhaustive %.3f > 0.1", fx.name, rmse)
		}
		agree, rmse := exhaustiveAgreement(pyr.Flow, exh.Flow)
		if agree < 0.9 {
			t.Fatalf("%s: argmin agreement %.3f < 0.9 (dense RMSE %.3f)", fx.name, agree, rmse)
		}
		// Hypothesis savings only materialize once the exhaustive window
		// outgrows the refinement windows (NZS ≥ 3 here); at NZS = 2 the
		// pyramid honestly costs slightly more, which BENCH_pyramid.json
		// reports as-is.
		if fx.p.NZS >= 3 && st.HypPerPixel >= float64(st.ExhaustivePerPixel) {
			t.Fatalf("%s: pyramid evaluated %.1f hyp/px, exhaustive needs only %d",
				fx.name, st.HypPerPixel, st.ExhaustivePerPixel)
		}
	}
}

// aliasingPair builds the scene that defeats coarse guidance: a strong
// static low-frequency ramp plus a fine high-frequency texture translating
// by (3, 0). Box downsampling averages the fine texture away, so coarse
// levels lock onto the static ramp and steer the refinement windows to
// zero — only the window-edge/residual fallback can recover the exhaustive
// answer at full resolution.
func aliasingPair(w, h int) Pair {
	n := synth.NewNoise(123)
	mk := func(shift float64) *grid.Grid {
		g := grid.New(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				low := 40 * math.Sin(2*math.Pi*float64(x)/float64(w))
				fine := 30 * n.Value(4*(float64(x)-shift), 4*float64(y))
				g.Set(x, y, float32(128+low+fine))
			}
		}
		return g
	}
	return Monocular(mk(0), mk(3))
}

// TestPyramidFallbackTriggersOnAliasing forces the exhaustive path: the
// aliasing scene's coarse levels are misleading, so without the fallback
// the ±1 refinement windows around a zero prior could never reach the
// true 3-pixel shift. The drivers must detect this (window-edge pins,
// outlier residuals), re-run those pixels exhaustively, and land close to
// the exhaustive answer.
func TestPyramidFallbackTriggersOnAliasing(t *testing.T) {
	p := Params{NS: 2, NZS: 4, NZT: 3}
	pair := aliasingPair(64, 64)
	prep, err := PreparePyramid(pair, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	exh := TrackPrepared(prep, nil, Options{})
	opt := Options{Pyramid: PyramidOptions{Levels: 3, RefineRadius: 1}}
	pyr, st, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.FallbackPixels == 0 {
		t.Fatal("aliasing scene triggered no exhaustive fallback")
	}
	agree, _ := exhaustiveAgreement(pyr.Flow, exh.Flow)
	if agree < 0.7 {
		t.Fatalf("with fallback, agreement vs exhaustive %.3f < 0.7 (fallback frac %.3f)",
			agree, st.FallbackFrac)
	}
}

// TestPyramidWorkerDeterminism pins the scheduling-independence contract:
// the accelerator's passes are barrier-separated and every fallback
// trigger reads only completed per-pixel data, so worker count must not
// change a single bit.
func TestPyramidWorkerDeterminism(t *testing.T) {
	s := synth.Thunderstorm(48, 48, 17)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := contParams()
	prep, err := PreparePyramid(pair, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Pyramid: PyramidOptions{Levels: 3}}
	base, stBase, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		got, st, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Flow.Equal(base.Flow) || !got.Err.Equal(base.Err) {
			t.Fatalf("workers=%d: pyramid result differs from serial", workers)
		}
		if st.Hypotheses != stBase.Hypotheses || st.FallbackPixels != stBase.FallbackPixels {
			t.Fatalf("workers=%d: stats differ: %+v vs %+v", workers, st, stBase)
		}
	}
	// The parallel driver must route Options.Pyramid to the same result.
	via := TrackPreparedParallel(prep, nil, opt, 4)
	if !via.Flow.Equal(base.Flow) {
		t.Fatal("TrackPreparedParallel(Options.Pyramid) differs from TrackPyramidPreparedCtx")
	}
}

// TestPreparePyramidChain pins the coarse-chain construction: halving
// dimensions, early stop at the 8-pixel floor, level clamping in the
// driver, and AssemblePair's mismatch rejection.
func TestPreparePyramidChain(t *testing.T) {
	s := synth.Hurricane(64, 64, 23)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := contParams()
	prep, err := PreparePyramid(pair, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(prep.Coarse) != 3 {
		t.Fatalf("64px, 4 levels: got %d coarse levels, want 3", len(prep.Coarse))
	}
	for i, c := range prep.Coarse {
		want := 64 >> (i + 1)
		if c.W != want || c.H != want {
			t.Fatalf("coarse[%d] is %dx%d, want %dx%d", i, c.W, c.H, want, want)
		}
	}
	// Requesting more levels than the size allows stops at the floor
	// (8 px), and the driver clamps to what was built.
	deep, err := PreparePyramid(pair, p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if last := deep.Coarse[len(deep.Coarse)-1]; last.W < pyramidMinSide {
		t.Fatalf("coarse chain went below the %d-px floor: %d", pyramidMinSide, last.W)
	}
	res, st, err := TrackPyramidPreparedCtx(context.Background(), deep,
		Options{Pyramid: PyramidOptions{Levels: 10}}, 0)
	if err != nil || res == nil {
		t.Fatalf("clamped deep pyramid failed: %v", err)
	}
	if st.Levels != 1+len(deep.Coarse) {
		t.Fatalf("driver ran %d levels, want clamp to %d", st.Levels, 1+len(deep.Coarse))
	}

	// Mismatched coarse chains must be rejected at assembly.
	f0, f1 := pair.Frames()
	a, err := PrepareFramePyramid(f0, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PrepareFramePyramid(f1, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssemblePair(a, b); err == nil {
		t.Fatal("mismatched coarse chains accepted")
	}

	// Semi-fluid preparation is rejected, as is a bad level count.
	if _, err := PrepareFramePyramid(f0, testParams(), 2); err == nil {
		t.Fatal("semi-fluid pyramid preparation accepted")
	}
	if _, err := PrepareFramePyramid(f0, p, 0); err == nil {
		t.Fatal("zero-level preparation accepted")
	}

	// Plain prepared geometry (no coarse chain) degrades to exhaustive.
	flat, err := Prepare(pair, p)
	if err != nil {
		t.Fatal(err)
	}
	got, st2, err := TrackPyramidPreparedCtx(context.Background(), flat,
		Options{Pyramid: PyramidOptions{Levels: 3}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Levels != 1 {
		t.Fatalf("flat prep ran %d levels, want 1", st2.Levels)
	}
	if want := TrackPrepared(flat, nil, Options{}); !got.Flow.Equal(want.Flow) {
		t.Fatal("flat-prep pyramid differs from exhaustive")
	}
}

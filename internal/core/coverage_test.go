package core

import (
	"context"
	"math"
	"testing"

	"sma/internal/la"
	"sma/internal/maspar"
	"sma/internal/synth"
)

// --- Solver fallback paths ----------------------------------------------------

func TestSolveMotionRidgeFallback(t *testing.T) {
	// A rank-deficient system (flat surface: only rows touching {0,3,4,5}
	// have support) must not blow up: the ridge fallback yields finite θ.
	var a la.Mat6
	var b la.Vec6
	// Accumulate flat-surface rows: zx = zy = 0.
	accumulateA(&a, 0, 0, 1, 1)
	accumulateB(&b, 0, 0, 0.1, -0.1, 0.05, 1, 1)
	symmetrize(&a)
	theta := solveMotion(&a, &b)
	for i, v := range theta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("theta[%d] = %v", i, v)
		}
	}
}

func TestSolveMotionZeroSystem(t *testing.T) {
	var a la.Mat6
	var b la.Vec6
	theta := solveMotion(&a, &b)
	for i, v := range theta {
		if v != 0 {
			t.Fatalf("zero system produced theta[%d] = %v", i, v)
		}
	}
}

// --- Option paths ----------------------------------------------------------------

func TestRobustWithCustomHuberK(t *testing.T) {
	s := synth.Thunderstorm(20, 20, 121)
	pair := Monocular(s.Frame(0), s.Frame(1))
	a, err := TrackSequential(pair, contParams(), Options{Robust: true, HuberK: 3.0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrackSequential(pair, contParams(), Options{Robust: true, HuberK: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Different thresholds are at least both valid fields; determinism per
	// configuration is separately guaranteed.
	if a.Flow == nil || b.Flow == nil {
		t.Fatal("robust tracking returned nil flow")
	}
}

func TestPyramidKeepMotion(t *testing.T) {
	s := synth.Hurricane(32, 32, 123)
	pair := Monocular(s.Frame(0), s.Frame(1))
	prep, err := PreparePyramid(pair, contParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{KeepMotion: true, Pyramid: PyramidOptions{Levels: 2}}
	res, _, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Motion) != 6 {
		t.Fatalf("pyramid KeepMotion produced %d grids", len(res.Motion))
	}
}

// --- ScoreOnce ------------------------------------------------

func TestScoreOnceZeroForIdenticalFrames(t *testing.T) {
	s := synth.Hurricane(24, 24, 129)
	f := s.Frame(0)
	prep, err := Prepare(Monocular(f, f.Clone()), contParams())
	if err != nil {
		t.Fatal(err)
	}
	if eps := ScoreOnce(prep, 12, 12); eps > 1e-9 {
		t.Fatalf("identical frames ε = %v", eps)
	}
}

// --- ModelRun standalone -----------------------------------------------------------

func TestModelRunRejectsInvalidParams(t *testing.T) {
	m := maspar.MustNew(maspar.ScaledConfig(4, 4))
	if _, _, err := ModelRun(m, 64, 64, Params{}, 2, maspar.RasterReadout); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestModelRunSemiFluidSlowerThanContinuous(t *testing.T) {
	mc := maspar.MustNew(maspar.DefaultConfig())
	stC, _, err := ModelRun(mc, 512, 512, Params{NS: 2, NZS: 6, NZT: 60}, 4, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	ms := maspar.MustNew(maspar.DefaultConfig())
	stS, _, err := ModelRun(ms, 512, 512, FredericParams(), 4, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	if stS.Total() <= stC.Total() {
		t.Fatalf("semi-fluid model %v not above continuous %v (extra mapping stage)",
			stS.Total(), stC.Total())
	}
	if stS.HypMatch != stC.HypMatch {
		t.Fatal("hypothesis-matching stage should be identical for equal windows")
	}
}

// --- CountOps rectangular consistency ----------------------------------------------

func TestCountOpsRectangular(t *testing.T) {
	square := Params{NS: 2, NZS: 2, NZT: 3}
	rect := Params{NS: 2, NZS: 2, NZT: 3, NZSX: 4, NZSY: 1}
	ocS := CountOps(square, 2)
	ocR := CountOps(rect, 2)
	if ocR.HypGauss != 9*3 {
		t.Fatalf("rect HypGauss = %d, want 27", ocR.HypGauss)
	}
	if ocS.HypGauss != 25 {
		t.Fatalf("square HypGauss = %d, want 25", ocS.HypGauss)
	}
	if ocR.HypFlops <= ocS.HypFlops {
		t.Fatal("9×3 search should cost more than 5×5")
	}
}

package stereo

import (
	"math"
	"testing"

	"sma/internal/geom"
	"sma/internal/grid"
	"sma/internal/synth"
)

func TestEstimateRejectsMismatchedSizes(t *testing.T) {
	if _, err := Estimate(grid.New(8, 8), grid.New(9, 8), DefaultConfig()); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestEstimateRejectsZeroLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Levels = 0
	if _, err := Estimate(grid.New(8, 8), grid.New(8, 8), cfg); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestConstantDisparityRecovered(t *testing.T) {
	scene := synth.Hurricane(64, 64, 17)
	left := scene.Frame(0)
	truth := grid.New(64, 64)
	truth.Fill(2)
	right := synth.StereoPair(left, truth)
	disp, err := Estimate(left, right, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Interior accuracy well under a pixel.
	in := disp.Crop(8, 8, 48, 48)
	tin := truth.Crop(8, 8, 48, 48)
	if rms := in.RMSDiff(tin); rms > 0.5 {
		t.Fatalf("constant disparity RMS error %v px", rms)
	}
}

func TestSmoothDisparityRecovered(t *testing.T) {
	scene := synth.Hurricane(96, 96, 23)
	left := scene.Frame(0)
	// Smooth dome of disparity, like a cloud-top height field.
	truth := grid.New(96, 96)
	truth.ApplyXY(func(x, y int, _ float32) float32 {
		dx := float64(x-48) / 30
		dy := float64(y-48) / 30
		return float32(3 * math.Exp(-(dx*dx+dy*dy)/2))
	})
	right := synth.StereoPair(left, truth)
	disp, err := Estimate(left, right, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := disp.Crop(12, 12, 72, 72)
	tin := truth.Crop(12, 12, 72, 72)
	if rms := in.RMSDiff(tin); rms > 0.6 {
		t.Fatalf("smooth disparity RMS error %v px", rms)
	}
}

func TestSubpixelBeatsInteger(t *testing.T) {
	scene := synth.ShearScene(64, 64, 29)
	left := scene.Frame(0)
	truth := grid.New(64, 64)
	truth.Fill(1.5) // half-pixel fractional disparity
	right := synth.StereoPair(left, truth)

	sub := DefaultConfig()
	intCfg := DefaultConfig()
	intCfg.Subpixel = false
	dSub, err := Estimate(left, right, sub)
	if err != nil {
		t.Fatal(err)
	}
	dInt, err := Estimate(left, right, intCfg)
	if err != nil {
		t.Fatal(err)
	}
	in := func(g *grid.Grid) *grid.Grid { return g.Crop(8, 8, 48, 48) }
	tin := in(truth)
	eSub := in(dSub).RMSDiff(tin)
	eInt := in(dInt).RMSDiff(tin)
	if eSub >= eInt {
		t.Fatalf("subpixel RMS %v not better than integer %v", eSub, eInt)
	}
	if eSub > 0.3 {
		t.Fatalf("subpixel RMS error %v too large", eSub)
	}
}

func TestCoarseToFineExtendsRange(t *testing.T) {
	// A 6 px disparity exceeds the per-level ±3 search but is recovered
	// through the pyramid (3 px at level 1 ≈ 6 px at level 0).
	scene := synth.Hurricane(96, 96, 31)
	left := scene.Frame(0)
	truth := grid.New(96, 96)
	truth.Fill(6)
	right := synth.StereoPair(left, truth)
	cfg := DefaultConfig()
	disp, err := Estimate(left, right, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := disp.Crop(16, 16, 64, 64)
	tin := truth.Crop(16, 16, 64, 64)
	if rms := in.RMSDiff(tin); rms > 0.8 {
		t.Fatalf("large disparity RMS error %v px", rms)
	}

	// A single level with the same search radius cannot reach 6 px.
	cfg1 := cfg
	cfg1.Levels = 1
	d1, err := Estimate(left, right, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if rms := d1.Crop(16, 16, 64, 64).RMSDiff(tin); rms < 1.0 {
		t.Fatalf("single-level matcher unexpectedly recovered 6 px (rms %v)", rms)
	}
}

func TestToHeight(t *testing.T) {
	d := grid.New(4, 4)
	d.Fill(2)
	z := ToHeight(d, 3.5)
	for _, v := range z.Data {
		if v != 7 {
			t.Fatalf("height %v, want 7", v)
		}
	}
	if d.Data[0] != 2 {
		t.Fatal("ToHeight mutated its input")
	}
}

func TestParabolicRefinement(t *testing.T) {
	// Minimum of a perfect parabola at +0.25 from center.
	f := func(x float64) float64 { return (x - 0.25) * (x - 0.25) }
	off := parabolic(f(-1), f(0), f(1))
	if math.Abs(off-0.25) > 1e-9 {
		t.Fatalf("parabolic offset %v, want 0.25", off)
	}
	// Flat scores return 0 (no refinement).
	if off := parabolic(1, 1, 1); off != 0 {
		t.Fatalf("flat parabola offset %v", off)
	}
}

func TestDisparityDeterministic(t *testing.T) {
	scene := synth.Thunderstorm(48, 48, 37)
	left := scene.Frame(0)
	truth := grid.New(48, 48)
	truth.Fill(1)
	right := synth.StereoPair(left, truth)
	a, err := Estimate(left, right, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(left, right, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("estimation not deterministic")
	}
}

func TestToHeightGeomFrederic(t *testing.T) {
	d := grid.New(4, 4)
	d.Fill(5) // 5 px of disparity
	z, err := ToHeightGeom(d, geom.Frederic())
	if err != nil {
		t.Fatal(err)
	}
	dpk, _ := geom.Frederic().DisparityPerKm()
	want := 5 / dpk
	if got := float64(z.At(1, 1)); math.Abs(got-want) > 1e-5 {
		t.Fatalf("height %v km, want %v", got, want)
	}
	bad := geom.Frederic()
	bad.KmPerPixel = 0
	if _, err := ToHeightGeom(d, bad); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

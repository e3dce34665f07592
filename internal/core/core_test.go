package core

import (
	"math"
	"math/rand"
	"testing"

	"sma/internal/grid"
	"sma/internal/la"
	"sma/internal/synth"
)

// testParams is a laptop-scale Frederic-like configuration.
func testParams() Params { return Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1} }

// contParams is the continuous-model variant.
func contParams() Params { return Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 0} }

func translationScene(w, h int, seed int64, u, v float64) *synth.Scene {
	return &synth.Scene{W: w, H: h, Flow: synth.Uniform{U: u, V: v},
		Tex: synth.Hurricane(w, h, seed).Tex}
}

// --- Params ------------------------------------------------------------------

func TestParamsValidate(t *testing.T) {
	cases := []Params{
		{NS: 0, NZS: 1, NZT: 1},
		{NS: 1, NZS: 0, NZT: 1},
		{NS: 1, NZS: 1, NZT: 0},
		{NS: 1, NZS: 1, NZT: 1, NSS: -1},
		{NS: 1, NZS: 1, NZT: 1, NSS: 1, NST: 0},
		{NS: 1, NZS: 1, NZT: 1, NSS: 128, NST: 1}, // δ is stored as int8
		{NS: 1, NZS: 128, NZT: 1},                 // flows are stored as int16
		{NS: 1, NZS: 1, NZT: 1, NZSX: 128},
		{NS: 1, NZS: 1, NZT: 1, NZSY: 128},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v) passed validation", i, p)
		}
	}
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	// The bounds are inclusive: a ±127 search with a ±127 δ is the
	// widest flow component, 254.
	for _, p := range []Params{
		{NS: 1, NZS: 127, NZT: 1, NSS: 127, NST: 1},
		{NS: 1, NZS: 1, NZT: 1, NZSX: 127, NZSY: 127},
	} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
	}
}

func TestFredericParamsMatchTable1(t *testing.T) {
	p := FredericParams()
	if w := 2*p.NS + 1; w != 5 {
		t.Errorf("surface-fit window %d, want 5", w)
	}
	if w := p.SearchWidth(); w != 13 {
		t.Errorf("z-search window %d, want 13", w)
	}
	if w := p.TemplateWidth(); w != 121 {
		t.Errorf("z-template window %d, want 121", w)
	}
	if w := 2*p.NST + 1; w != 5 {
		t.Errorf("semi-fluid template window %d, want 5", w)
	}
	// "13×13 = 169 Gaussian-eliminations are performed to solve for the
	// motion parameters".
	if h := p.Hypotheses(); h != 169 {
		t.Errorf("hypotheses = %d, want 169", h)
	}
	if !p.SemiFluid() {
		t.Error("Frederic configuration must use the semi-fluid model")
	}
}

func TestGOES9ParamsMatchTable3(t *testing.T) {
	p := GOES9Params()
	if p.SearchWidth() != 15 || p.TemplateWidth() != 15 || 2*p.NS+1 != 5 {
		t.Fatalf("GOES-9 windows %d/%d/%d, want 15/15/5",
			p.SearchWidth(), p.TemplateWidth(), 2*p.NS+1)
	}
	if p.SemiFluid() {
		t.Fatal("GOES-9 run uses the continuous model")
	}
}

func TestLuisParams(t *testing.T) {
	p := LuisParams()
	if p.TemplateWidth() != 11 || p.SearchWidth() != 9 || p.SemiFluid() {
		t.Fatalf("Luis params %+v, want 11×11 template, 9×9 search, continuous", p)
	}
}

func TestPairValidate(t *testing.T) {
	g := grid.New(8, 8)
	if err := (Pair{I0: g, I1: g, Z0: g}).Validate(); err == nil {
		t.Fatal("nil Z1 accepted")
	}
	if err := (Pair{I0: g, I1: grid.New(9, 8), Z0: g, Z1: g}).Validate(); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if err := Monocular(g, g.Clone()).Validate(); err != nil {
		t.Fatal(err)
	}
}

// --- Prepare -----------------------------------------------------------------

func TestPrepareSharesMonocularDiscriminant(t *testing.T) {
	g0 := translationScene(16, 16, 1, 0, 0).Frame(0)
	g1 := g0.Clone()
	prep, err := Prepare(Monocular(g0, g1), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if prep.D0 != prep.G0.D || prep.D1 != prep.G1.D {
		t.Fatal("monocular prepare should reuse the surface discriminant")
	}
	if FitPasses(Monocular(g0, g1), testParams()) != 2 {
		t.Fatal("monocular semi-fluid should need 2 fit passes")
	}
}

func TestPrepareStereoUsesFourPasses(t *testing.T) {
	s := translationScene(16, 16, 2, 1, 0)
	i0, i1 := s.Frame(0), s.Frame(1)
	z0, z1 := s.Height(i0), s.Height(i1)
	pair := Pair{I0: i0, I1: i1, Z0: z0, Z1: z1}
	if FitPasses(pair, testParams()) != 4 {
		t.Fatal("stereo semi-fluid should need 4 fit passes")
	}
	prep, err := Prepare(pair, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if prep.D0 == prep.G0.D {
		t.Fatal("stereo prepare must fit the intensity image separately")
	}
}

func TestPrepareContinuousSkipsDiscriminant(t *testing.T) {
	g := translationScene(16, 16, 3, 0, 0).Frame(0)
	prep, err := Prepare(Monocular(g, g.Clone()), contParams())
	if err != nil {
		t.Fatal(err)
	}
	if prep.D0 != nil || prep.D1 != nil {
		t.Fatal("continuous model should not compute discriminants")
	}
}

func TestPrepareRejectsBadInput(t *testing.T) {
	g := grid.New(8, 8)
	if _, err := Prepare(Pair{}, testParams()); err == nil {
		t.Fatal("empty pair accepted")
	}
	bad := testParams()
	bad.NS = 0
	if _, err := Prepare(Monocular(g, g), bad); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// --- SemiMap -----------------------------------------------------------------

func TestBuildSemiMapNilForContinuous(t *testing.T) {
	g := translationScene(16, 16, 4, 0, 0).Frame(0)
	prep, err := Prepare(Monocular(g, g.Clone()), contParams())
	if err != nil {
		t.Fatal(err)
	}
	if sm := BuildSemiMap(prep); sm != nil {
		t.Fatal("continuous model produced a semi-map")
	}
}

func TestSemiMapZeroForExactHypothesis(t *testing.T) {
	// With pure translation (2, 1), the hypothesis h = (2, 1) aligns
	// discriminant patches exactly, so δ must be 0 for interior pixels.
	s := translationScene(24, 24, 5, 2, 1)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), testParams())
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	for y := 8; y < 16; y++ {
		for x := 8; x < 16; x++ {
			dx, dy := sm.Delta(x, y, 2, 1)
			if dx != 0 || dy != 0 {
				t.Fatalf("δ(%d,%d; 2,1) = (%d,%d), want (0,0)", x, y, dx, dy)
			}
		}
	}
}

func TestSemiMapCorrectsOffByOneHypothesis(t *testing.T) {
	// Under hypothesis (1, 1) for true motion (2, 1), the best semi-fluid
	// adjustment within ±1 is δ = (1, 0) for well-textured pixels.
	s := translationScene(24, 24, 6, 2, 1)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), testParams())
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	good, tot := 0, 0
	for y := 8; y < 16; y++ {
		for x := 8; x < 16; x++ {
			dx, dy := sm.Delta(x, y, 1, 1)
			tot++
			if dx == 1 && dy == 0 {
				good++
			}
		}
	}
	if good*2 < tot {
		t.Fatalf("only %d/%d pixels corrected the off-by-one hypothesis", good, tot)
	}
}

func TestSemiMapDeltaBounds(t *testing.T) {
	s := synth.Thunderstorm(20, 20, 7)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), testParams())
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	for _, d := range sm.DX {
		if int(d) < -1 || int(d) > 1 {
			t.Fatalf("δx = %d outside ±NSS", d)
		}
	}
	for _, d := range sm.DY {
		if int(d) < -1 || int(d) > 1 {
			t.Fatalf("δy = %d outside ±NSS", d)
		}
	}
}

// --- Tracking accuracy ---------------------------------------------------------

func TestTranslationRecoveredExactly(t *testing.T) {
	s := translationScene(32, 32, 8, 2, 1)
	res, err := TrackSequential(Monocular(s.Frame(0), s.Frame(1)), contParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			u, v := res.Flow.At(x, y)
			if u != 2 || v != 1 {
				t.Fatalf("flow(%d,%d) = (%v,%v), want (2,1)", x, y, u, v)
			}
		}
	}
}

func TestZeroMotionGivesZeroFlowAndError(t *testing.T) {
	g := translationScene(24, 24, 9, 0, 0).Frame(0)
	res, err := TrackSequential(Monocular(g, g.Clone()), contParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 24; y++ {
		for x := 0; x < 24; x++ {
			u, v := res.Flow.At(x, y)
			if u != 0 || v != 0 {
				t.Fatalf("flow(%d,%d) = (%v,%v) on identical frames", x, y, u, v)
			}
		}
	}
	if _, max := res.Err.MinMax(); max > 1e-6 {
		t.Fatalf("nonzero ε %v on identical frames", max)
	}
}

func TestVortexFlowWithinOnePixelRMSE(t *testing.T) {
	// The paper's accuracy claim: RMSE < 1 pixel against the (manual barb)
	// reference. Integer correspondences quantize, so sub-pixel truth
	// costs up to ~0.5 px/axis; the interior RMSE must stay below 1 px.
	s := synth.Hurricane(48, 48, 10)
	f0, f1 := s.Frame(0), s.Frame(1)
	res, err := TrackSequential(Monocular(f0, f1), testParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	truth := s.Truth(1)
	var pts []grid.Point
	for _, p := range synth.Barbs(f0, 32, 8, 3) {
		pts = append(pts, p)
	}
	if rmse := res.Flow.RMSEAt(truth, pts); rmse >= 1.0 {
		t.Fatalf("barb RMSE = %v px, want < 1 (paper's accuracy bound)", rmse)
	}
}

// correctCount counts interior pixels whose integer flow matches truth.
func correctCount(f, truth *grid.VectorField, lo, hi int) (correct, total int) {
	for y := lo; y < hi; y++ {
		for x := lo; x < hi; x++ {
			u, v := f.At(x, y)
			tu, tv := truth.At(x, y)
			total++
			if u == tu && v == tv {
				correct++
			}
		}
	}
	return correct, total
}

// tilePair builds a "fluid" scene: every tile×tile block moves with its
// own displacement (base (1,0) plus jitter in {−1,0,1}²) — sub-template-
// scale incoherent motion, the regime the semi-fluid model is built for.
func tilePair(w, h, tile int, seed int64) (Pair, *grid.VectorField) {
	n := synth.NewNoise(seed)
	tex := func(x, y float64) float64 { return n.Octaves(x/6, y/6, 4, 0.5) }
	f0 := grid.New(w, h)
	f0.ApplyXY(func(x, y int, _ float32) float32 {
		return float32(255 * tex(float64(x), float64(y)))
	})
	rng := rand.New(rand.NewSource(seed))
	tilesX := (w + tile - 1) / tile
	tilesY := (h + tile - 1) / tile
	du := make([]int, tilesX*tilesY)
	dv := make([]int, tilesX*tilesY)
	for i := range du {
		du[i] = 1 + rng.Intn(3) - 1
		dv[i] = rng.Intn(3) - 1
	}
	f1 := grid.New(w, h)
	truth := grid.NewVectorField(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ti := (y/tile)*tilesX + x/tile
			f1.Set(x, y, float32(255*tex(float64(x-du[ti]), float64(y-dv[ti]))))
			truth.Set(x, y, float32(du[ti]), float32(dv[ti]))
		}
	}
	return Monocular(f0, f1), truth
}

func TestSemiFluidBeatsContinuousOnFluidMotion(t *testing.T) {
	// On sub-template-scale incoherent ("fluid") motion the per-pixel
	// re-matching of Fsemi recovers substantially more exact
	// correspondences than the continuous model, whose single affine
	// patch must compromise across tiles.
	pair, truth := tilePair(40, 40, 4, 99)
	cont, err := TrackSequential(pair, contParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := TrackSequential(pair, testParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc, tot := correctCount(cont.Flow, truth, 8, 32)
	sc, _ := correctCount(semi.Flow, truth, 8, 32)
	if float64(sc) < 1.15*float64(cc) {
		t.Fatalf("semi-fluid correct %d/%d not >= 1.15× continuous %d/%d", sc, tot, cc, tot)
	}
	// And with the paper's suggested median post-filter, the semi-fluid
	// RMSE is at least as good too.
	se := semi.Flow.Median3().RMSE(truth)
	ce := cont.Flow.Median3().RMSE(truth)
	if se > ce*1.02 {
		t.Fatalf("median-filtered semi-fluid RMSE %v worse than continuous %v", se, ce)
	}
}

func TestSemiFluidBeatsContinuousOnMultiLayer(t *testing.T) {
	// The motivating case for Fsemi: a broken upper deck over a lower
	// deck moving differently. The semi-fluid mapping lets contaminated
	// template pixels re-match toward their own layer's motion, raising
	// the exact-correspondence rate.
	ml := synth.NewMultiLayer(40, 40, 11)
	ml.Upper.Flow = synth.Uniform{U: 2, V: 0}
	ml.Lower.Flow = synth.Uniform{U: -1, V: -1}
	pair := Monocular(ml.Frame(0), ml.Frame(1))
	truth := ml.Truth(0, 1)

	cont, err := TrackSequential(pair, contParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	semi, err := TrackSequential(pair, testParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cc, tot := correctCount(cont.Flow, truth, 8, 32)
	sc, _ := correctCount(semi.Flow, truth, 8, 32)
	if sc <= cc {
		t.Fatalf("semi-fluid correct %d/%d not above continuous %d/%d", sc, tot, cc, tot)
	}
}

func TestStereoPipelineTracksHeights(t *testing.T) {
	// Full pipeline shape: heights from the scene act as z-surfaces while
	// intensity drives the semi-fluid mapping, as in the Frederic run.
	s := translationScene(32, 32, 12, 1, 2)
	i0, i1 := s.Frame(0), s.Frame(1)
	pair := Pair{I0: i0, I1: i1, Z0: s.Height(i0), Z1: s.Height(i1)}
	res, err := TrackSequential(pair, testParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, tot := 0, 0
	for y := 8; y < 24; y++ {
		for x := 8; x < 24; x++ {
			u, v := res.Flow.At(x, y)
			tot++
			if u == 1 && v == 2 {
				good++
			}
		}
	}
	if good*10 < tot*8 {
		t.Fatalf("stereo pipeline recovered only %d/%d pixels", good, tot)
	}
}

func TestKeepMotionParamsNearZeroForPureTranslation(t *testing.T) {
	// Pure translation has no deformation: the fitted affine parameters at
	// the winning hypothesis must be ≈ 0.
	s := translationScene(28, 28, 13, 1, 0)
	res, err := TrackSequential(Monocular(s.Frame(0), s.Frame(1)), contParams(), Options{KeepMotion: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Motion == nil {
		t.Fatal("KeepMotion did not populate Motion")
	}
	for i, g := range res.Motion {
		v := math.Abs(float64(g.At(14, 14)))
		if v > 0.05 {
			t.Fatalf("motion parameter %d = %v at center, want ≈0", i, v)
		}
	}
}

func TestRobustRefineDownweightsOutliers(t *testing.T) {
	// White-box: buffered observations generated from a known parameter
	// vector θ*, with 10% gross outliers. The Huber-reweighted solve must
	// land closer to θ* than the plain least-squares solution it refines.
	rng := rand.New(rand.NewSource(77))
	thetaStar := la.Vec6{0.02, -0.01, 0.03, 0.01, -0.02, 0.015}
	const n = 200
	buf := make([]float64, n*bufStride)
	var a la.Mat6
	var b la.Vec6
	for i := 0; i < n; i++ {
		zx := rng.NormFloat64()
		zy := rng.NormFloat64()
		// rhs = L·θ* per row (no noise), then corrupt some entries.
		r0 := zy*thetaStar[2] - zx*thetaStar[3] - thetaStar[4]
		r1 := -zy*thetaStar[0] + zx*thetaStar[1] - thetaStar[5]
		r2 := thetaStar[0] + thetaStar[3]
		if i%10 == 0 {
			r0 += 5 // gross outlier
			r1 -= 3
		}
		k := i * bufStride
		buf[k+bufZx] = zx
		buf[k+bufZy] = zy
		buf[k+bufR0] = r0
		buf[k+bufR1] = r1
		buf[k+bufR2] = r2
		buf[k+bufW0] = 1
		buf[k+bufW1] = 1
		accumulateA(&a, zx, zy, 1, 1)
		accumulateB(&b, zx, zy, r0, r1, r2, 1, 1)
	}
	symmetrize(&a)
	plain := solveMotion(&a, &b)
	robust := robustRefine(buf, plain, 1.5)
	dist := func(th la.Vec6) float64 {
		var s float64
		for i := range th {
			d := th[i] - thetaStar[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	if dist(robust) >= dist(plain) {
		t.Fatalf("robust ‖θ−θ*‖ = %v not below plain %v", dist(robust), dist(plain))
	}
}

func TestRobustTrackingNonInferior(t *testing.T) {
	// End-to-end non-inferiority: on a clean scene the robust option must
	// stay exactly correct, and under impulse corruption (which
	// contaminates most templates through the surface fit, hurting every
	// estimator) it must stay within 10% of the plain solve.
	s := translationScene(32, 32, 15, 2, 0)
	f0 := s.Frame(0)
	clean := s.Frame(1)

	cleanRobust, err := TrackSequential(Monocular(f0, clean), contParams(), Options{Robust: true})
	if err != nil {
		t.Fatal(err)
	}
	good, tot := 0, 0
	for y := 10; y < 22; y++ {
		for x := 10; x < 22; x++ {
			u, v := cleanRobust.Flow.At(x, y)
			tot++
			if u == 2 && v == 0 {
				good++
			}
		}
	}
	if good != tot {
		t.Fatalf("clean-scene robust tracking correct on only %d/%d", good, tot)
	}

	dirty := clean.Clone()
	for i, p := range []grid.Point{{X: 12, Y: 12}, {X: 18, Y: 15}, {X: 15, Y: 20}} {
		dirty.Set(p.X, p.Y, float32(255*(i%2)))
	}
	count := func(opt Options) int {
		res, err := TrackSequential(Monocular(f0, dirty), contParams(), opt)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for y := 10; y < 22; y++ {
			for x := 10; x < 22; x++ {
				u, v := res.Flow.At(x, y)
				if u == 2 && v == 0 {
					n++
				}
			}
		}
		return n
	}
	plain := count(Options{})
	robust := count(Options{Robust: true})
	if float64(robust) < 0.9*float64(plain) {
		t.Fatalf("robust correct count %d below 90%% of plain %d", robust, plain)
	}
}

func TestTrackingDeterministic(t *testing.T) {
	s := synth.Thunderstorm(24, 24, 16)
	pair := Monocular(s.Frame(0), s.Frame(1))
	a, err := TrackSequential(pair, testParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrackSequential(pair, testParams(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Flow.Equal(b.Flow) || !a.Err.Equal(b.Err) {
		t.Fatal("sequential tracking not deterministic")
	}
}

// --- OpCounts ------------------------------------------------------------------

func TestCountOpsFredericInventory(t *testing.T) {
	oc := CountOps(FredericParams(), 4)
	if oc.HypGauss != 169 {
		t.Fatalf("HypGauss = %d, want 169 per pixel", oc.HypGauss)
	}
	// "169 error terms are evaluated ... each error term sums 121×121 =
	// 14641 terms".
	if oc.TemplateFetch != 169*14641 {
		t.Fatalf("TemplateFetch = %d, want 169·14641", oc.TemplateFetch)
	}
	// "9 error terms ... 25 parameters each" per semi-fluid mapping.
	if oc.SemiMapFlops != 169*9*25*24 {
		t.Fatalf("SemiMapFlops = %d", oc.SemiMapFlops)
	}
}

func TestCountOpsContinuousHasNoSemiMap(t *testing.T) {
	oc := CountOps(GOES9Params(), 2)
	if oc.SemiMapFlops != 0 {
		t.Fatalf("continuous model charged %d semi-map flops", oc.SemiMapFlops)
	}
}

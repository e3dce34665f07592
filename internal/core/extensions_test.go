package core

import (
	"context"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

// --- Rectangular windows -------------------------------------------------------

func TestRectangularRadiiDefaults(t *testing.T) {
	p := Params{NS: 2, NZS: 3, NZT: 4}
	if p.SearchRX() != 3 || p.SearchRY() != 3 || p.TemplateRX() != 4 || p.TemplateRY() != 4 {
		t.Fatalf("square defaults broken: %d %d %d %d",
			p.SearchRX(), p.SearchRY(), p.TemplateRX(), p.TemplateRY())
	}
	p.NZSX = 5
	p.NZTY = 2
	if p.SearchRX() != 5 || p.SearchRY() != 3 || p.TemplateRX() != 4 || p.TemplateRY() != 2 {
		t.Fatalf("overrides broken: %d %d %d %d",
			p.SearchRX(), p.SearchRY(), p.TemplateRX(), p.TemplateRY())
	}
	if p.Hypotheses() != 11*7 {
		t.Fatalf("Hypotheses = %d, want 77", p.Hypotheses())
	}
	if p.TemplatePixels() != 9*5 {
		t.Fatalf("TemplatePixels = %d, want 45", p.TemplatePixels())
	}
}

func TestRectangularValidation(t *testing.T) {
	p := Params{NS: 2, NZS: 2, NZT: 3, NZSX: -1}
	if err := p.Validate(); err == nil {
		t.Fatal("negative rectangular override accepted")
	}
}

func TestRectangularSearchRecoversWideMotion(t *testing.T) {
	// Motion (4, 0): a square ±2 search misses it; a rectangular ±4×±1
	// search with fewer hypotheses than a ±4 square catches it.
	s := &synth.Scene{W: 40, H: 40, Flow: synth.Uniform{U: 4, V: 0},
		Tex: synth.Hurricane(40, 40, 31).Tex}
	pair := Monocular(s.Frame(0), s.Frame(1))

	square := Params{NS: 2, NZS: 2, NZT: 3}
	rect := Params{NS: 2, NZS: 2, NZT: 3, NZSX: 4, NZSY: 1}
	if rect.Hypotheses() >= 81 { // a ±4 square would cost 81
		t.Fatalf("rect hypotheses %d not cheaper than square ±4", rect.Hypotheses())
	}
	sq, err := TrackSequential(pair, square, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := TrackSequential(pair, rect, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqGood, tot := 0, 0
	rcGood := 0
	for y := 10; y < 30; y++ {
		for x := 10; x < 30; x++ {
			tot++
			if u, v := sq.Flow.At(x, y); u == 4 && v == 0 {
				sqGood++
			}
			if u, v := rc.Flow.At(x, y); u == 4 && v == 0 {
				rcGood++
			}
		}
	}
	if sqGood > 0 {
		t.Fatalf("±2 square search recovered %d pixels of a 4-px motion", sqGood)
	}
	if rcGood*10 < tot*9 {
		t.Fatalf("rectangular search recovered only %d/%d", rcGood, tot)
	}
}

func TestRectangularTemplateMatchesSquareWhenEqual(t *testing.T) {
	s := synth.Thunderstorm(24, 24, 33)
	pair := Monocular(s.Frame(0), s.Frame(1))
	square := Params{NS: 2, NZS: 2, NZT: 3}
	rect := Params{NS: 2, NZS: 2, NZT: 3, NZTX: 3, NZTY: 3, NZSX: 2, NZSY: 2}
	a, err := TrackSequential(pair, square, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrackSequential(pair, rect, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Flow.Equal(b.Flow) {
		t.Fatal("explicit square overrides changed the result")
	}
}

// --- Pyramid (coarse-to-fine) ---------------------------------------------------

func TestPyramidRecoversLargeMotion(t *testing.T) {
	// A 6-px translation inside a ±6 search window: the summed-window
	// search the option selects evaluates all 169 hypotheses per pixel
	// and finds it.
	s := &synth.Scene{W: 64, H: 64, Flow: synth.Uniform{U: 6, V: 0},
		Tex: synth.Hurricane(64, 64, 35).Tex}
	p := Params{NS: 2, NZS: 6, NZT: 3}
	prep, err := PreparePyramid(Monocular(s.Frame(0), s.Frame(1)), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := TrackPyramidPreparedCtx(context.Background(), prep, Options{Pyramid: PyramidOptions{Levels: 3}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	good, tot := 0, 0
	for y := 16; y < 48; y++ {
		for x := 16; x < 48; x++ {
			tot++
			if u, v := res.Flow.At(x, y); u == 6 && v == 0 {
				good++
			}
		}
	}
	if good*10 < tot*8 {
		t.Fatalf("pyramid recovered only %d/%d of the 6-px motion", good, tot)
	}
	if st.Hypotheses != st.Pixels*int64(p.Hypotheses()) {
		t.Fatalf("pyramid evaluated %d hypotheses over %d pixels, want the exhaustive %d each",
			st.Hypotheses, st.Pixels, p.Hypotheses())
	}
}

func TestPyramidSingleLevelMatchesSequential(t *testing.T) {
	s := synth.Thunderstorm(24, 24, 37)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := contParams()
	a, err := TrackSequential(pair, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := PreparePyramid(pair, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, st, err := TrackPyramidPreparedCtx(context.Background(), prep, Options{Pyramid: PyramidOptions{Levels: 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hypotheses != int64(24*24*p.Hypotheses()) || st.FallbackPixels != 0 {
		t.Fatalf("single-level pyramid stats %+v, want the exhaustive count and no fallbacks", st)
	}
	if !a.Flow.Equal(b.Flow) || !a.Err.Equal(b.Err) {
		t.Fatal("single-level pyramid differs from sequential")
	}
}

func TestPyramidRejectsSemiFluid(t *testing.T) {
	s := synth.Thunderstorm(16, 16, 39)
	pair := Monocular(s.Frame(0), s.Frame(1))
	if _, err := PreparePyramid(pair, testParams(), 2); err == nil {
		t.Fatal("semi-fluid pyramid preparation accepted")
	}
	prep, err := Prepare(pair, testParams())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Pyramid: PyramidOptions{Levels: 2}}
	if _, err := TrackPreparedParallelCtx(context.Background(), prep, BuildSemiMap(prep), opt, 1); err == nil {
		t.Fatal("semi-fluid pyramid search accepted")
	}
}

func TestPyramidRejectsBadLevels(t *testing.T) {
	s := synth.Thunderstorm(16, 16, 41)
	pair := Monocular(s.Frame(0), s.Frame(1))
	if _, err := PreparePyramid(pair, contParams(), 0); err == nil {
		t.Fatal("zero levels accepted")
	}
}

// --- Host parallelism -------------------------------------------------------------

func TestTrackParallelMatchesSequential(t *testing.T) {
	s := synth.Hurricane(28, 28, 43)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := testParams()
	seq, err := TrackSequential(pair, p, Options{KeepMotion: true})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(pair, p)
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	for _, workers := range []int{1, 3, 8} {
		par := TrackPreparedParallel(prep, sm, Options{KeepMotion: true}, workers)
		if !par.Flow.Equal(seq.Flow) || !par.Err.Equal(seq.Err) {
			t.Fatalf("workers=%d: parallel differs from sequential", workers)
		}
		for i := range par.Motion {
			if !par.Motion[i].Equal(seq.Motion[i]) {
				t.Fatalf("workers=%d: motion parameter %d differs", workers, i)
			}
		}
	}
}

// --- Multispectral -----------------------------------------------------------------

func TestMultispectralValidation(t *testing.T) {
	g := grid.New(8, 8)
	p := Pair{I0: g, I1: g, Z0: g, Z1: g, Extra: []Channel{{I0: g, I1: nil}}}
	if err := p.Validate(); err == nil {
		t.Fatal("nil extra channel accepted")
	}
	p.Extra = []Channel{{I0: g, I1: grid.New(9, 8)}}
	if err := p.Validate(); err == nil {
		t.Fatal("mismatched extra channel accepted")
	}
}

func TestMultispectralFitPasses(t *testing.T) {
	s := synth.Hurricane(16, 16, 49)
	f0, f1 := s.Frame(0), s.Frame(1)
	pair := Monocular(f0, f1)
	pair.Extra = []Channel{{I0: f0.Clone(), I1: f1.Clone()}}
	if got := FitPasses(pair, testParams()); got != 4 {
		t.Fatalf("FitPasses = %d, want 4 (2 surface + 2 extra-channel)", got)
	}
	// Continuous model ignores channels (no discriminants needed).
	if got := FitPasses(pair, contParams()); got != 2 {
		t.Fatalf("continuous FitPasses = %d, want 2", got)
	}
}

func TestMultispectralDisambiguatesSemiMap(t *testing.T) {
	// Channel 1 is a pure linear ramp: its discriminant is identically
	// zero, so the semi-fluid matching has no signal and keeps δ = 0.
	// Adding a textured second channel recovers the true δ.
	w, h := 28, 28
	ramp := func(t float64) *grid.Grid {
		g := grid.New(w, h)
		g.ApplyXY(func(x, y int, _ float32) float32 { return float32(x) })
		return g
	}
	texScene := &synth.Scene{W: w, H: h, Flow: synth.Uniform{U: 2, V: 0},
		Tex: synth.Hurricane(w, h, 51).Tex}
	p := testParams()

	mono := Pair{I0: ramp(0), I1: ramp(1), Z0: texScene.Frame(0), Z1: texScene.Frame(1)}
	prepMono, err := Prepare(mono, p)
	if err != nil {
		t.Fatal(err)
	}
	smMono := BuildSemiMap(prepMono)

	multi := mono
	multi.Extra = []Channel{{I0: texScene.Frame(0), I1: texScene.Frame(1)}}
	prepMulti, err := Prepare(multi, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(prepMulti.Extra) != 1 {
		t.Fatalf("prepared %d extra channels", len(prepMulti.Extra))
	}
	smMulti := BuildSemiMap(prepMulti)

	// Under hypothesis (1, 0) for true motion (2, 0): the ramp channel
	// alone keeps δ = (0,0); the textured channel should pull δ to (1,0).
	monoCorrect, multiCorrect, tot := 0, 0, 0
	for y := 10; y < 18; y++ {
		for x := 10; x < 18; x++ {
			tot++
			if dx, dy := smMono.Delta(x, y, 1, 0); dx == 1 && dy == 0 {
				monoCorrect++
			}
			if dx, dy := smMulti.Delta(x, y, 1, 0); dx == 1 && dy == 0 {
				multiCorrect++
			}
		}
	}
	if monoCorrect != 0 {
		t.Fatalf("ramp-only semi-map somehow corrected %d/%d pixels", monoCorrect, tot)
	}
	if multiCorrect*2 < tot {
		t.Fatalf("multispectral semi-map corrected only %d/%d pixels", multiCorrect, tot)
	}
}

// --- Windowed search ----------------------------------------------------------------

func TestSearchWindowOffsetsSearch(t *testing.T) {
	// With a prior of (4,0) and true motion (4,0), even a ±1 search finds
	// the exact correspondence.
	s := &synth.Scene{W: 32, H: 32, Flow: synth.Uniform{U: 4, V: 0},
		Tex: synth.Hurricane(32, 32, 53).Tex}
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), Params{NS: 2, NZS: 1, NZT: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := newBlockKernel(prep, nil, Options{}, padNormals(prep), windowOrder(hypWindow{lox: 3, hix: 5, loy: -1, hiy: 1}), 1, 1)
	k.searchTile(nil, tileRect{X0: 16, Y0: 16, X1: 17, Y1: 17})
	if hx, hy := k.best[0].hx, k.best[0].hy; hx != 4 || hy != 0 {
		t.Fatalf("offset window search found (%d,%d), want (4,0)", hx, hy)
	}
}

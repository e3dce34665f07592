package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"sma/internal/grid"
	"sma/internal/la"
	"sma/internal/synth"
)

// Tests of the summed-window search (summed.go), the search
// Options.Pyramid selects: byte-identity with its oracle
// (TrackSummedReference) on border-dominated, rectangular, multi-block
// and ridge-path inputs; independence of the worker count;
// cancellation; the refusal of non-finite geometry; and Robust's route
// to the block kernel. Argmin agreement with the reference kernel is
// TestPyramidAccuracyVsExhaustiveOnFixtures (pyramid_accel_test.go).

// summedOpt selects the summed-window search.
var summedOpt = Options{Pyramid: PyramidOptions{Levels: 2}}

// summedPrep prepares a continuous-model pair of scene-rendered w×h frames.
func summedPrep(t *testing.T, w, h int, seed int64, p Params) *Prepared {
	t.Helper()
	s := synth.Hurricane(w, h, seed)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestSummedMatchesOracle: the kernel — padded row slices, the slider's
// ring, per-worker scratch reused across blocks — is byte-identical to
// the oracle's full-table transcription, ε, flow and KeepMotion θ alike.
func TestSummedMatchesOracle(t *testing.T) {
	flat := grid.New(20, 12)
	flat.Fill(100)
	cases := []struct {
		name string
		prep func(t *testing.T) *Prepared
	}{
		{"3x3", func(t *testing.T) *Prepared { return summedPrep(t, 3, 3, 1, contParams()) }},
		{"1xN", func(t *testing.T) *Prepared { return summedPrep(t, 1, 17, 2, contParams()) }},
		{"Nx1", func(t *testing.T) *Prepared { return summedPrep(t, 17, 1, 3, contParams()) }},
		{"9x7", func(t *testing.T) *Prepared { return summedPrep(t, 9, 7, 4, contParams()) }},
		{"rect-overrides", func(t *testing.T) *Prepared {
			return summedPrep(t, 23, 19, 5, Params{NS: 2, NZS: 2, NZT: 2, NZTX: 4, NZSX: 3})
		}},
		{"rect-overrides-y", func(t *testing.T) *Prepared {
			return summedPrep(t, 19, 23, 6, Params{NS: 2, NZS: 1, NZT: 3, NZTY: 1, NZSY: 2})
		}},
		{"multi-block-130x70", func(t *testing.T) *Prepared {
			return summedPrep(t, 130, 70, 7, Params{NS: 2, NZS: 1, NZT: 2})
		}},
		{"flat-ridge", func(t *testing.T) *Prepared {
			prep, err := Prepare(Monocular(flat, flat.Clone()), contParams())
			if err != nil {
				t.Fatal(err)
			}
			return prep
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prep := tc.prep(t)
			for _, keep := range []bool{false, true} {
				opt := summedOpt
				opt.KeepMotion = keep
				want, err := TrackSummedReference(prep, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					got, st, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, workers)
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, fmt.Sprintf("keep=%v workers=%d", keep, workers), got, want)
					if px := int64(prep.W * prep.H); st.Pixels != px || st.Hypotheses != px*int64(prep.P.Hypotheses()) {
						t.Fatalf("stats %+v, want %d pixels × %d hypotheses", st, px, prep.P.Hypotheses())
					}
				}
			}
		})
	}
}

// TestSummedFlatTemplateTakesRidgePath pins the premise of the oracle
// test's flat case: a featureless template (zx = zy = 0, E = G = 1)
// leaves A singular, so invertMotion goes through factorMotion's ridge
// fallback — and a matrix no solve accepts yields M = 0, so ε = C.
func TestSummedFlatTemplateTakesRidgePath(t *testing.T) {
	const n = 49
	v := aPlaneValues(0, 0, 1, 1)
	var s [aPlanes]float64
	for k := range s {
		s[k] = n * v[k]
	}
	a := summedA(&s, n)
	if _, ok := la.Factor6(&a); ok {
		t.Fatal("flat template's A factored without the ridge")
	}
	if m := invertMotion(&a); m == ([21]float64{}) {
		t.Fatal("ridge fallback produced no inverse")
	}
	// A = diag(−0.6, 0, …, 0): its trace cancels the ridge's 1e-9 floor,
	// so neither factorization finds a second pivot.
	var bad la.Mat6
	bad[0][0] = -0.6
	if m := invertMotion(&bad); m != ([21]float64{}) {
		t.Fatalf("unsolvable A gave M = %v, want 0", m)
	}
	b := la.Vec6{1, 2, 3, 4, 5, 6}
	if e := summedEps(&[21]float64{}, &b, 7); e != 7 {
		t.Fatalf("ε with M = 0 is %v, want C = 7", e)
	}
}

// TestSummedScheduleIndependence: blocks are absolute-aligned and sums
// restart at each block, so any worker count gives the same bytes and
// stats — on an image spanning several blocks, including the narrow edge
// blocks, and on a 48² thunderstorm — and TrackPreparedParallel with
// Options.Pyramid gives the same bytes as TrackPyramidPreparedCtx.
func TestSummedScheduleIndependence(t *testing.T) {
	storm := synth.Thunderstorm(48, 48, 17)
	stormPrep, err := PreparePyramid(Monocular(storm.Frame(0), storm.Frame(1)), contParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prep *Prepared
	}{
		{"hurricane-150x70", summedPrep(t, 150, 70, 9, Params{NS: 2, NZS: 2, NZT: 3})},
		{"thunderstorm-48", stormPrep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := summedOpt
			opt.KeepMotion = true
			base, stBase, err := TrackPyramidPreparedCtx(context.Background(), tc.prep, opt, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 8} {
				got, st, err := TrackPyramidPreparedCtx(context.Background(), tc.prep, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, fmt.Sprintf("workers=%d", workers), got, base)
				if *st != *stBase {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, st, stBase)
				}
			}
			requireSameBits(t, "TrackPreparedParallel", TrackPreparedParallel(tc.prep, nil, opt, 4), base)
		})
	}
}

// TestSummedCancellation: a cancelled ctx stops the search between
// hypotheses and surfaces as ctx.Err().
func TestSummedCancellation(t *testing.T) {
	prep := summedPrep(t, 130, 70, 11, contParams())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, st, err := TrackPyramidPreparedCtx(ctx, prep, summedOpt, 2)
	if !errors.Is(err, context.Canceled) || res != nil || st != nil {
		t.Fatalf("cancelled search returned (%v, %v, %v), want context.Canceled", res != nil, st, err)
	}
}

// TestSummedRejectsNonFinite: one NaN or Inf sample would ride a running
// sum into every later window of its block, so the search refuses
// non-finite geometry passed straight to core instead of answering
// wrongly — as does its oracle.
func TestSummedRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(prep *Prepared)
	}{
		{"NaN normal", func(prep *Prepared) { prep.G1.Ni.Set(5, 6, float32(math.NaN())) }},
		{"Inf slope", func(prep *Prepared) { prep.G0.Zy.Set(0, 0, float32(math.Inf(-1))) }},
		{"zero E", func(prep *Prepared) { prep.G0.E.Set(8, 2, 0) }},
	} {
		prep := summedPrep(t, 16, 12, 13, contParams())
		tc.set(prep)
		if _, _, err := TrackPyramidPreparedCtx(context.Background(), prep, summedOpt, 1); err == nil {
			t.Fatalf("%s: search accepted non-finite geometry", tc.name)
		}
		if _, err := TrackSummedReference(prep, summedOpt); err == nil {
			t.Fatalf("%s: oracle accepted non-finite geometry", tc.name)
		}
	}
	// A NaN intensity pixel reaches the geometry through the surface fit.
	s := synth.Hurricane(16, 12, 13)
	f1 := s.Frame(1)
	f1.Set(4, 4, float32(math.NaN()))
	prep, err := Prepare(Monocular(s.Frame(0), f1), contParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TrackPyramidPreparedCtx(context.Background(), prep, summedOpt, 1); err == nil {
		t.Fatal("search accepted a pair with a NaN pixel")
	}
}

// TestSummedRobustRunsBlockKernel: the Huber refinement re-weights per
// hypothesis from per-pixel residuals, which no window sum expresses, so
// the pyramid option with Robust runs the block kernel — the same bits as
// a Robust track without the option, on both entry points.
func TestSummedRobustRunsBlockKernel(t *testing.T) {
	prep := summedPrep(t, 16, 12, 15, contParams())
	want, err := TrackPreparedParallelCtx(context.Background(), prep, nil, Options{Robust: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := summedOpt
	opt.Robust = true
	got, st, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Flow.Equal(want.Flow) || !got.Err.Equal(want.Err) {
		t.Fatal("robust pyramid track differs from the robust block kernel")
	}
	if st.Hypotheses != int64(prep.W*prep.H*prep.P.Hypotheses()) {
		t.Fatalf("stats %+v, want the exhaustive count", st)
	}
	got, err = TrackPreparedParallelCtx(context.Background(), prep, nil, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Flow.Equal(want.Flow) || !got.Err.Equal(want.Err) {
		t.Fatal("robust pyramid track via TrackPreparedParallelCtx differs from the robust block kernel")
	}
}

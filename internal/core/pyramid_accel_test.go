package core

import (
	"context"
	"math"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

// Tests of the pyramid option (Options.Pyramid, the summed-window
// search): RMSE/argmin agreement vs the reference kernel on the Figure 5/6
// fixtures. summed_test.go holds the oracle, scheduling and property
// tests.

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

// TestPyramidAccuracyVsExhaustiveOnFixtures holds the summed-window
// search to the floors BENCH_pyramid.json records on the Figure 5
// (hurricane wind-barb) and Figure 6 (thunderstorm) fixtures: argmin
// agreement with the reference kernel ≥ 0.997 over the full field, and
// RMSE ≤ 0.1 grid units at the wind-barb tracers. Running sums
// reassociate the reference's template sums, so near-ties may flip; the
// search must not otherwise differ.
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
		exh := TrackPreparedReference(prep, nil, Options{})
		opt := Options{Pyramid: PyramidOptions{Levels: 3}}
		pyr, _, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 0)
		if err != nil {
			t.Fatal(err)
		}
		barbs := synth.Barbs(i0, 32, 8, 4)
		if rmse := pyr.Flow.RMSEAt(exh.Flow, barbs); rmse > 0.1 {
			t.Fatalf("%s: barb RMSE vs exhaustive %.3f > 0.1", fx.name, rmse)
		}
		agree, rmse := exhaustiveAgreement(pyr.Flow, exh.Flow)
		if agree < 0.997 {
			t.Fatalf("%s: argmin agreement %.4f < 0.997 (dense RMSE %.3f)", fx.name, agree, rmse)
		}
	}
}

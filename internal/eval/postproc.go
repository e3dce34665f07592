package eval

import (
	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/postproc"
	"sma/internal/synth"
)

// PostprocRow scores one motion-field post-processing variant (§6's
// "improving the accuracy of the estimated motion field by using robust
// estimation, relaxation labeling or regularization, and post processing
// ... by using cloud classification").
type PostprocRow struct {
	Name string
	RMSE float64 // interior, vs ground truth
}

// PostprocExperiment tracks a hurricane scene with the continuous model
// and compares the raw field against the implemented post-processing
// options: 3×3 median, relaxation labeling, confidence-weighted
// regularization and the Huber-robust solve.
func PostprocExperiment(size int, seed int64) ([]PostprocRow, error) {
	scene := synth.Hurricane(size, size, seed)
	i0 := scene.Frame(0)
	i1 := scene.Frame(1)
	truth := scene.Truth(1)
	p := core.Params{NS: 2, NZS: 3, NZT: 3, NST: 2, NSS: 0}
	pair := core.Monocular(i0, i1)

	res, err := core.TrackSequential(pair, p, core.Options{})
	if err != nil {
		return nil, err
	}
	robust, err := core.TrackSequential(pair, p, core.Options{Robust: true})
	if err != nil {
		return nil, err
	}
	relaxed, err := postproc.Relax(res.Flow, i0, i1, postproc.DefaultRelaxConfig())
	if err != nil {
		return nil, err
	}
	smoothed, err := postproc.ConfidenceSmooth(res.Flow, res.Err, 1)
	if err != nil {
		return nil, err
	}

	margin := size / 8
	score := func(f *grid.VectorField) float64 {
		var pts []grid.Point
		for y := margin; y < size-margin; y++ {
			for x := margin; x < size-margin; x++ {
				pts = append(pts, grid.Point{X: x, Y: y})
			}
		}
		return f.RMSEAt(truth, pts)
	}
	return []PostprocRow{
		{"raw", score(res.Flow)},
		{"median 3x3", score(res.Flow.Median3())},
		{"relaxation labeling", score(relaxed)},
		{"confidence smoothing", score(smoothed)},
		{"robust solve", score(robust.Flow)},
	}, nil
}

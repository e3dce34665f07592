// Package quality provides truth-free diagnostics of an estimated motion
// field — the checks an operational user (who has no ground truth, unlike
// our synthetic scenes) can run: brightness-constancy warp residuals,
// flow smoothness statistics and residual-confidence summaries.
package quality

import (
	"fmt"
	"math"
	"sort"

	"sma/internal/grid"
)

// Report summarizes the quality of a motion field for one image pair.
type Report struct {
	// WarpRMS is the RMS brightness residual |I1(x+d) − I0(x)| under the
	// flow, in grey levels — small if the motion explains the images.
	WarpRMS float64
	// BaselineRMS is the zero-motion RMS residual |I1(x) − I0(x)|; the
	// ratio WarpRMS/BaselineRMS measures how much of the frame change the
	// flow explains.
	BaselineRMS float64
	// Smoothness is the mean magnitude of the flow's spatial gradient
	// (px per px); fluid fields are rough, rigid fields smooth.
	Smoothness float64
	// EpsMedian and Eps90 summarize the tracker's per-pixel residual ε
	// distribution when available (zero otherwise).
	EpsMedian, Eps90 float64
}

// Assess computes the report. eps may be nil.
func Assess(flow *grid.VectorField, i0, i1 *grid.Grid, eps *grid.Grid) (*Report, error) {
	w, h := flow.Bounds()
	if i0.W != w || i0.H != h || i1.W != w || i1.H != h {
		return nil, fmt.Errorf("quality: image sizes do not match the flow")
	}
	r := &Report{}
	warp := flow.Warp(i1)
	var sw, sb float64
	n := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			warped := float64(warp.AtUnchecked(x, y))
			base := float64(i1.AtUnchecked(x, y))
			orig := float64(i0.AtUnchecked(x, y))
			dw := warped - orig
			db := base - orig
			sw += dw * dw
			sb += db * db
			n++
		}
	}
	r.WarpRMS = math.Sqrt(sw / float64(n))
	r.BaselineRMS = math.Sqrt(sb / float64(n))

	var sg float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u0, v0 := flow.At(x, y)
			u1, v1 := flow.At(x+1, y)
			u2, v2 := flow.At(x, y+1)
			sg += math.Hypot(float64(u1-u0), float64(v1-v0))
			sg += math.Hypot(float64(u2-u0), float64(v2-v0))
		}
	}
	r.Smoothness = sg / float64(2*n)

	if eps != nil {
		if eps.W != w || eps.H != h {
			return nil, fmt.Errorf("quality: ε field size does not match the flow")
		}
		vals := make([]float64, len(eps.Data))
		for i, v := range eps.Data {
			vals[i] = float64(v)
		}
		sort.Float64s(vals)
		r.EpsMedian = vals[len(vals)/2]
		r.Eps90 = vals[len(vals)*9/10]
	}
	return r, nil
}

// ExplainedFraction reports how much of the frame-to-frame change the
// flow explains: 1 − (WarpRMS/BaselineRMS)², clamped to [0, 1].
func (r *Report) ExplainedFraction() float64 {
	if r.BaselineRMS == 0 {
		return 1
	}
	f := 1 - (r.WarpRMS/r.BaselineRMS)*(r.WarpRMS/r.BaselineRMS)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("warpRMS=%.2f baseRMS=%.2f explained=%.0f%% smooth=%.3f epsMed=%.3g",
		r.WarpRMS, r.BaselineRMS, 100*r.ExplainedFraction(), r.Smoothness, r.EpsMedian)
}

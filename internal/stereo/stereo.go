// Package stereo implements the Automatic Stereo Analysis (ASA) substrate
// of §2.1: a correlation-based, multiresolution, hierarchical
// coarse-to-fine stereo matcher. Rectified left/right image pairs are
// matched along scan lines; coarse disparity estimates warp one view into
// the other so successively finer levels only estimate small residual
// disparities — "typically four levels to produce the final dense
// disparity or depth maps".
package stereo

import (
	"fmt"

	"sma/internal/geom"
	"sma/internal/grid"
)

// Config parameterizes the ASA matcher.
type Config struct {
	// Levels is the number of pyramid levels (paper default 4).
	Levels int
	// TemplateRadius sets the stereo-analysis template: a
	// (2·TemplateRadius+1)² window centered on the pixel of interest.
	TemplateRadius int
	// SearchRadius bounds the per-level disparity search in pixels.
	SearchRadius int
	// Subpixel enables parabolic refinement of the winning correlation.
	Subpixel bool
	// SmoothSigma Gaussian-smooths each level's disparity before
	// propagating it down the hierarchy (0 disables).
	SmoothSigma float64
}

// DefaultConfig mirrors the paper's setup: four levels with a small
// correlation template and subpixel refinement.
func DefaultConfig() Config {
	return Config{Levels: 4, TemplateRadius: 3, SearchRadius: 3, Subpixel: true, SmoothSigma: 1.0}
}

// Estimate computes the dense disparity map d(x, y) such that
// left(x, y) ≈ right(x + d(x, y), y). Both images must share dimensions.
func Estimate(left, right *grid.Grid, cfg Config) (*grid.Grid, error) {
	if left.W != right.W || left.H != right.H {
		return nil, fmt.Errorf("stereo: image sizes differ: %dx%d vs %dx%d", left.W, left.H, right.W, right.H)
	}
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("stereo: need at least one level, got %d", cfg.Levels)
	}
	lp := grid.NewPyramid(left, cfg.Levels)
	rp := grid.NewPyramid(right, cfg.Levels)
	levels := len(lp.Levels)

	// Coarsest level: full search from zero.
	disp := matchLevel(lp.Levels[levels-1], rp.Levels[levels-1], nil, cfg)
	// Finer levels: upsample, warp, estimate residual.
	for l := levels - 2; l >= 0; l-- {
		lw, lh := lp.Levels[l].W, lp.Levels[l].H
		disp = disp.Upsample2(lw, lh, 2) // disparities double at finer scale
		if cfg.SmoothSigma > 0 {
			disp = disp.GaussianBlur(cfg.SmoothSigma)
		}
		disp = matchLevel(lp.Levels[l], rp.Levels[l], disp, cfg)
	}
	return disp, nil
}

// matchLevel refines the disparity at one pyramid level. prior may be nil
// (coarsest level). The search is 1-D along scan lines, as the right
// images "are rectified and warped to align them with the left images
// such that epipolar lines become parallel to scan lines".
func matchLevel(left, right, prior *grid.Grid, cfg Config) *grid.Grid {
	w, h := left.W, left.H
	out := grid.New(w, h)
	nt := cfg.TemplateRadius
	ns := cfg.SearchRadius
	scores := make([]float64, 2*ns+1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var base float64
			if prior != nil {
				base = float64(prior.AtUnchecked(x, y))
			}
			best := 0
			bestScore := inf
			for s := -ns; s <= ns; s++ {
				sc := ssd(left, right, x, y, base+float64(s), nt)
				scores[s+ns] = sc
				if sc < bestScore {
					bestScore = sc
					best = s
				}
			}
			d := float64(best)
			if cfg.Subpixel && best > -ns && best < ns {
				d += parabolic(scores[best+ns-1], scores[best+ns], scores[best+ns+1])
			}
			out.Set(x, y, float32(base+d))
		}
	}
	return out
}

const inf = 1e30

// ssd returns the sum of squared differences between the left template at
// (x, y) and the right template displaced by the (fractional) disparity d.
func ssd(left, right *grid.Grid, x, y int, d float64, nt int) float64 {
	var s float64
	for dy := -nt; dy <= nt; dy++ {
		for dx := -nt; dx <= nt; dx++ {
			lv := float64(left.At(x+dx, y+dy))
			rv := float64(right.Bilinear(float64(x+dx)+d, float64(y+dy)))
			diff := lv - rv
			s += diff * diff
		}
	}
	return s
}

// parabolic returns the sub-sample offset of the extremum of a parabola
// through three equally spaced scores (s_-1, s_0, s_+1), clamped to ±0.5.
func parabolic(sm, s0, sp float64) float64 {
	den := sm - 2*s0 + sp
	if den <= 1e-12 {
		return 0
	}
	off := 0.5 * (sm - sp) / den
	if off > 0.5 {
		off = 0.5
	} else if off < -0.5 {
		off = -0.5
	}
	return off
}

// ToHeight converts a disparity map to a cloud-top height surface using a
// constant satellite-geometry gain (paper: "transformed into surface maps
// z(t) of cloud-top heights using satellite and sensor geometry").
func ToHeight(disp *grid.Grid, gain float32) *grid.Grid {
	z := disp.Clone()
	z.Apply(func(v float32) float32 { return v * gain })
	return z
}

// ToHeightGeom converts a disparity map to cloud-top heights (km) using a
// geostationary stereo geometry instead of a raw gain factor.
func ToHeightGeom(disp *grid.Grid, s geom.Stereo) (*grid.Grid, error) {
	dpk, err := s.DisparityPerKm()
	if err != nil {
		return nil, err
	}
	z := disp.Clone()
	inv := float32(1 / dpk)
	z.Apply(func(v float32) float32 { return v * inv })
	return z, nil
}

// Package core implements the paper's primary contribution: the Semi-fluid
// Motion Analysis (SMA) algorithm for dense non-rigid motion estimation on
// time-varying intensity and surface imagery.
//
// For every tracked pixel the algorithm evaluates a (2·NZS+1)² search
// neighborhood of correspondence hypotheses. Each hypothesis is scored by
// fitting the six local affine motion parameters {ai, bi, aj, bj, ak, bk}
// (paper eq. 6) that best explain the observed change of surface normals
// over a (2·NZT+1)² template — a 6×6 Gaussian elimination per hypothesis —
// and taking the minimized normal-residual error ε (eqs. 3–5). The
// hypothesis with the smallest ε wins.
//
// Under the continuous model Fcont the template moves as one patch; under
// the semi-fluid model Fsemi every template pixel first re-matches
// independently inside a small (2·NSS+1)² window by comparing local
// intensity-surface discriminants (eqs. 9–11), which relaxes the local
// continuity constraint and handles fluid and multi-layer cloud motion.
//
// Two drivers produce bit-identical motion fields: TrackSequential (the
// paper's correctness baseline) and TrackMasPar (the SIMD implementation
// on the simulated MasPar MP-2, with full communication and memory-
// segmentation cost accounting).
package core

import (
	"fmt"
	"math"

	"sma/internal/grid"
	"sma/internal/la"
)

// Params holds the neighborhood radii of the SMA algorithm. Window sizes
// in the paper are quoted as edge lengths (2·radius + 1).
type Params struct {
	// NS is the surface-fitting radius: quadratic patches use a
	// (2·NS+1)² neighborhood (paper: 5×5 → NS = 2).
	NS int
	// NZS is the z-search radius: hypotheses span (2·NZS+1)²
	// (Frederic: 13×13 → NZS = 6).
	NZS int
	// NZT is the z-template radius: the error sum runs over (2·NZT+1)²
	// pixels (Frederic: 121×121 → NZT = 60).
	NZT int
	// NST is the semi-fluid template radius: discriminant patches of
	// (2·NST+1)² pixels are compared (paper: 5×5 → NST = 2; §4.3 sets
	// NST = NS).
	NST int
	// NSS is the semi-fluid search radius: each template pixel re-matches
	// within (2·NSS+1)² (paper: 3×3 → NSS = 1). NSS = 0 reduces Fsemi to
	// the continuous mapping Fcont (paper §2.3).
	NSS int

	// Rectangular-window overrides (§2.2: "rectangular areas can also be
	// used and may lead to improved motion correspondence results"; §6
	// lists adaptive non-square windows as future work). A zero value
	// falls back to the square radius above.
	NZTX, NZTY int // template radii per axis (0 → NZT)
	NZSX, NZSY int // search radii per axis (0 → NZS)
}

// TemplateRX returns the effective template radius along x.
func (p Params) TemplateRX() int { return defaultRadius(p.NZTX, p.NZT) }

// TemplateRY returns the effective template radius along y.
func (p Params) TemplateRY() int { return defaultRadius(p.NZTY, p.NZT) }

// SearchRX returns the effective search radius along x.
func (p Params) SearchRX() int { return defaultRadius(p.NZSX, p.NZS) }

// SearchRY returns the effective search radius along y.
func (p Params) SearchRY() int { return defaultRadius(p.NZSY, p.NZS) }

func defaultRadius(override, base int) int {
	if override > 0 {
		return override
	}
	return base
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.NS < 1:
		return fmt.Errorf("core: NS = %d, need >= 1 for quadratic fitting", p.NS)
	case p.NZS < 1:
		return fmt.Errorf("core: NZS = %d, need >= 1", p.NZS)
	case p.NZT < 1:
		return fmt.Errorf("core: NZT = %d, need >= 1", p.NZT)
	case p.NSS < 0:
		return fmt.Errorf("core: NSS = %d, need >= 0", p.NSS)
	case p.NSS > math.MaxInt8:
		// The semi-fluid map stores each δ component as an int8.
		return fmt.Errorf("core: NSS = %d, need <= %d", p.NSS, math.MaxInt8)
	case p.NSS > 0 && p.NST < 1:
		return fmt.Errorf("core: NST = %d, need >= 1 when the semi-fluid model is enabled", p.NST)
	case p.NZTX < 0 || p.NZTY < 0 || p.NZSX < 0 || p.NZSY < 0:
		return fmt.Errorf("core: rectangular window overrides must be non-negative")
	case p.NZS > math.MaxInt8 || p.NZSX > math.MaxInt8 || p.NZSY > math.MaxInt8:
		// Bounds the request size; every flow component |h + δ| then stays
		// within 2·127 = 254, which a stored int16 flow holds exactly.
		return fmt.Errorf("core: search radii NZS/NZSX/NZSY = %d/%d/%d, need <= %d", p.NZS, p.NZSX, p.NZSY, math.MaxInt8)
	case p.NZT > math.MaxInt8 || p.NZTX > math.MaxInt8 || p.NZTY > math.MaxInt8:
		// Bounds the request size before the padded normal planes,
		// (w + 2·NZT)² samples, are allocated, and keeps a template at
		// n ≤ 255² pixels, which the block kernel screen's rounding
		// margin assumes (docs/PERFORMANCE.md §6.3).
		return fmt.Errorf("core: template radii NZT/NZTX/NZTY = %d/%d/%d, need <= %d", p.NZT, p.NZTX, p.NZTY, math.MaxInt8)
	}
	return nil
}

// SemiFluid reports whether the semi-fluid mapping Fsemi is active
// (NSS > 0); otherwise the continuous mapping Fcont is used.
func (p Params) SemiFluid() bool { return p.NSS > 0 }

// SearchWidth returns the search-window edge 2·NZS+1 (x-axis edge when a
// rectangular override is set).
func (p Params) SearchWidth() int { return 2*p.SearchRX() + 1 }

// TemplatePixels returns the template area in pixels.
func (p Params) TemplatePixels() int {
	return (2*p.TemplateRX() + 1) * (2*p.TemplateRY() + 1)
}

// Hypotheses returns the number of correspondence hypotheses per pixel —
// also the number of 6×6 Gaussian eliminations the motion solve performs
// per pixel (169 for the Frederic configuration).
func (p Params) Hypotheses() int {
	return (2*p.SearchRX() + 1) * (2*p.SearchRY() + 1)
}

// FredericParams returns Table 1 of the paper: the Hurricane Frederic
// stereo configuration (surface fit 5×5, z-search 13×13, z-template
// 121×121, semi-fluid template 5×5 with a 3×3 semi-fluid search).
func FredericParams() Params {
	return Params{NS: 2, NZS: 6, NZT: 60, NST: 2, NSS: 1}
}

// GOES9Params returns Table 3: the GOES-9 Florida thunderstorm
// configuration (search 15×15, template 15×15, surface patch 5×5) using
// the continuous model.
func GOES9Params() Params {
	return Params{NS: 2, NZS: 7, NZT: 7, NST: 2, NSS: 0}
}

// LuisParams returns the Hurricane Luis configuration of §5: continuous
// model with an 11×11 z-template and 9×9 z-search.
func LuisParams() Params {
	return Params{NS: 2, NZS: 4, NZT: 5, NST: 2, NSS: 0}
}

// ScaledParams returns a reduced configuration with the same structure as
// FredericParams for tests and laptop-scale experiments.
func ScaledParams() Params {
	return Params{NS: 2, NZS: 2, NZT: 4, NST: 2, NSS: 1}
}

// Pair is one timestep of tracking input: intensity and surface images at
// t and t+1. For monocular sequences the intensity data is "treated as a
// digital surface" (paper §2): pass the intensity images as Z0/Z1.
type Pair struct {
	I0, I1 *grid.Grid // left-view intensity at t and t+1
	Z0, Z1 *grid.Grid // surface (cloud-top height or digital surface)
	// Extra holds additional spectral channels (paper §6: "using
	// multispectral information"). The semi-fluid discriminant matching
	// sums patch differences across the primary intensity channel and all
	// extra channels; the surface model is unaffected.
	Extra []Channel
}

// Channel is one additional spectral band of a multispectral sequence.
type Channel struct {
	I0, I1 *grid.Grid
}

// Monocular builds a Pair from a single-satellite intensity sequence, with
// the intensity images standing in for the surfaces.
func Monocular(i0, i1 *grid.Grid) Pair { return Pair{I0: i0, I1: i1, Z0: i0, Z1: i1} }

// Validate checks presence and dimension agreement of all four images.
func (p Pair) Validate() error {
	if p.I0 == nil || p.I1 == nil || p.Z0 == nil || p.Z1 == nil {
		return fmt.Errorf("core: pair has nil images")
	}
	w, h := p.I0.W, p.I0.H
	for _, g := range []*grid.Grid{p.I1, p.Z0, p.Z1} {
		if g.W != w || g.H != h {
			return fmt.Errorf("core: pair image sizes differ: %dx%d vs %dx%d", w, h, g.W, g.H)
		}
	}
	for i, c := range p.Extra {
		if c.I0 == nil || c.I1 == nil {
			return fmt.Errorf("core: extra channel %d has nil images", i)
		}
		if c.I0.W != w || c.I0.H != h || c.I1.W != w || c.I1.H != h {
			return fmt.Errorf("core: extra channel %d size differs from primary", i)
		}
	}
	return nil
}

// Result is a dense tracking outcome.
type Result struct {
	// Flow holds the winning integer correspondence offset per pixel.
	Flow *grid.VectorField
	// Err holds the minimized residual ε of the winning hypothesis.
	Err *grid.Grid
	// Motion optionally holds the six fitted affine motion parameters of
	// the winning hypothesis per pixel (nil unless requested).
	Motion []*grid.Grid

	// screenCounts tallies what the block kernel's screen eliminated
	// (screen.go).
	screenCounts
}

// newResult allocates a w×h result, with the six motion-parameter grids
// when keepMotion is set.
func newResult(w, h int, keepMotion bool) *Result {
	res := &Result{Flow: grid.NewVectorField(w, h), Err: grid.New(w, h)}
	if keepMotion {
		res.Motion = make([]*grid.Grid, 6)
		for i := range res.Motion {
			res.Motion[i] = grid.New(w, h)
		}
	}
	return res
}

// set stores one pixel's winning hypothesis: offset, ε and, when the
// result keeps them, the fitted motion parameters.
func (r *Result) set(x, y, hx, hy int, eps float64, theta la.Vec6) {
	r.Flow.Set(x, y, float32(hx), float32(hy))
	r.Err.Set(x, y, float32(eps))
	for i, g := range r.Motion {
		g.Set(x, y, float32(theta[i]))
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sma/internal/grid"
)

// Coarse-to-fine multiresolution hypothesis search (docs/ALGORITHM.md,
// cost model in docs/PERFORMANCE.md §9). The paper's
// search is a brute-force argmin over (2·NZS+1)² shift hypotheses per
// pixel; the pyramid driver replaces it with an exhaustive sweep at a
// box-filtered coarse level (where the search radius shrinks by 2 per
// level) followed by small refinement windows seeded from the upsampled
// coarser flow, turning O(NZS²) hypothesis work into ~O(log NZS).
//
// Two per-pixel fallbacks keep the quality gate honest: a winner pinned
// to an interior refinement-window edge (the prior steered the window
// away from the true minimum) and a residual far above the frame median
// (coarse guidance found no plausible match, e.g. under aliasing) both
// re-run the pixel through today's exhaustive kernel, so poor guidance
// degrades to the exact answer instead of a wrong one.
//
// Only the continuous model is supported: the semi-fluid precompute is
// tied to a fixed global search window, which prior-guided search
// invalidates.

// PyramidOptions configures the coarse-to-fine search. The zero value
// disables it (Levels <= 1), preserving the bit-exact exhaustive default.
type PyramidOptions struct {
	// Levels is the number of resolution levels including full
	// resolution; values above the prepared coarse chain (or above what
	// the image size allows) are clamped, so requesting more levels than
	// exist degrades gracefully toward the exhaustive search.
	Levels int
	// RefineRadius is the half-width of the per-pixel refinement window
	// searched around the upsampled coarser estimate (0 selects the
	// default of DefaultRefineRadius). A radius covering the full search
	// window (>= 2·NZS) makes the level-0 sweep enumerate exactly the
	// exhaustive hypothesis set, bit-identically.
	RefineRadius int
	// FallbackFactor triggers the per-pixel exhaustive fallback when a
	// pixel's residual exceeds this multiple of the frame's median
	// residual (0 selects DefaultFallbackFactor; negative disables the
	// residual trigger, leaving only the window-edge trigger).
	FallbackFactor float64
}

const (
	// DefaultRefineRadius is the refinement half-width when
	// PyramidOptions.RefineRadius is zero: ±2 tolerates one pixel of
	// prior rounding error plus one pixel of coarse-estimate error.
	DefaultRefineRadius = 2
	// DefaultFallbackFactor is the residual-trigger multiple when
	// PyramidOptions.FallbackFactor is zero.
	DefaultFallbackFactor = 8
	// fallbackResidualFloor keeps the residual trigger meaningful on
	// synthetic scenes whose median residual is at the noise floor: the
	// threshold never drops below this absolute value.
	fallbackResidualFloor = 1e-12
)

// Enabled reports whether the options request the coarse-to-fine search.
func (po PyramidOptions) Enabled() bool { return po.Levels > 1 }

func (po PyramidOptions) refineRadius() int {
	if po.RefineRadius <= 0 {
		return DefaultRefineRadius
	}
	return po.RefineRadius
}

// PyramidStats reports what the coarse-to-fine driver actually did — the
// observable side of the §9 cost model. All counters are deterministic:
// they are sums over per-pixel quantities that do not depend on worker
// scheduling.
type PyramidStats struct {
	// Levels is the level count actually run (after clamping to the
	// prepared coarse chain).
	Levels int `json:"levels"`
	// RefineRadius is the resolved refinement half-width.
	RefineRadius int `json:"refine_radius"`
	// Pixels is the full-resolution pixel count.
	Pixels int64 `json:"pixels"`
	// Hypotheses counts every hypothesis evaluation across all levels
	// and the fallback pass.
	Hypotheses int64 `json:"hypotheses"`
	// HypPerPixel is Hypotheses / Pixels — the number the §9 cost model
	// predicts.
	HypPerPixel float64 `json:"hyp_per_pixel"`
	// ExhaustivePerPixel is the (2·NZS+1)² hypothesis count the
	// exhaustive search would evaluate per pixel.
	ExhaustivePerPixel int `json:"exhaustive_per_pixel"`
	// FallbackPixels counts level-0 pixels re-run through the exhaustive
	// kernel; EdgeFallbacks and ResidualFallbacks split them by trigger
	// (a pixel tripping both counts under the edge trigger).
	FallbackPixels    int64   `json:"fallback_pixels"`
	FallbackFrac      float64 `json:"fallback_frac"`
	EdgeFallbacks     int64   `json:"edge_fallbacks"`
	ResidualFallbacks int64   `json:"residual_fallbacks"`
}

// TrackPyramidPreparedCtx runs the coarse-to-fine accelerated search on
// pyramid-prepared geometry (PreparePyramid) and reports its cost
// statistics. It stays inside the exhaustive search window: every
// reported displacement is a member of the (2·NZS+1)² hypothesis set,
// refinement windows are clamped into the per-level window, and the
// per-pixel fallback re-runs suspect pixels through the exhaustive
// kernel. With RefineRadius >= 2·NZS the result is bit-identical to
// TrackPrepared. Results are bit-identical at every worker count.
func TrackPyramidPreparedCtx(ctx context.Context, prep *Prepared, opt Options, workers int) (*Result, *PyramidStats, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	p := prep.P
	if p.SemiFluid() {
		return nil, nil, fmt.Errorf("core: pyramid search requires the continuous model (NSS = 0)")
	}
	levels := opt.Pyramid.Levels
	if levels < 1 {
		levels = 1
	}
	if built := 1 + len(prep.Coarse); levels > built {
		levels = built
	}
	refine := opt.Pyramid.refineRadius()
	st := &PyramidStats{
		Levels:             levels,
		RefineRadius:       refine,
		Pixels:             int64(prep.W) * int64(prep.H),
		ExhaustivePerPixel: p.Hypotheses(),
	}

	preps := make([]*Prepared, 0, levels)
	preps = append(preps, prep)
	preps = append(preps, prep.Coarse[:levels-1]...)

	var prior *grid.VectorField
	var res *Result
	var window func(x, y int) (hypWindow, bool)
	for l := levels - 1; l >= 0; l-- {
		lp := preps[l]
		if prior != nil {
			// Promote the coarser flow: double the displacements and
			// resample to this level's dimensions.
			u := prior.U.Upsample2(lp.W, lp.H, 2)
			v := prior.V.Upsample2(lp.W, lp.H, 2)
			prior = &grid.VectorField{U: u, V: v}
		}
		window = levelWindow(prior, scaledRadius(p.SearchRX(), l), scaledRadius(p.SearchRY(), l), refine)
		res = newResult(lp.W, lp.H, opt.KeepMotion && l == 0)
		n, err := trackTiles(ctx, lp, nil, opt, workers, res, window)
		if err != nil {
			return nil, nil, err
		}
		st.Hypotheses += n
		prior = res.Flow
	}
	if levels > 1 {
		if err := pyramidFallback(ctx, prep, opt, workers, res, window, st); err != nil {
			return nil, nil, err
		}
	}
	st.HypPerPixel = float64(st.Hypotheses) / float64(st.Pixels)
	if st.FallbackPixels > 0 {
		st.FallbackFrac = float64(st.FallbackPixels) / float64(st.Pixels)
	}
	return res, st, nil
}

// scaledRadius is the search radius at pyramid level l: the full-
// resolution radius shrinks by 2 per level, never below 1.
func scaledRadius(r, l int) int {
	s := (r + (1 << l) - 1) >> l // ceil(r / 2^l)
	if s < 1 {
		s = 1
	}
	return s
}

// levelWindow returns one level's per-pixel hypothesis windows. Without
// a prior (the coarsest level) every pixel sweeps the level's ±(rx, ry)
// window exhaustively; otherwise each pixel searches ±refine around its
// rounded prior, with center and window clamped into ±(rx, ry).
func levelWindow(prior *grid.VectorField, rx, ry, refine int) func(x, y int) (hypWindow, bool) {
	return func(x, y int) (hypWindow, bool) {
		if prior == nil {
			return hypWindow{-rx, rx, -ry, ry}, true
		}
		u, v := prior.At(x, y)
		cx := clampInt(int(math.Round(float64(u))), -rx, rx)
		cy := clampInt(int(math.Round(float64(v))), -ry, ry)
		return hypWindow{maxInt(cx-refine, -rx), minInt(cx+refine, rx),
			maxInt(cy-refine, -ry), minInt(cy+refine, ry)}, true
	}
}

// pyramidFallback re-runs suspect level-0 pixels through the exhaustive
// kernel: pixels whose winner sat on an interior edge of their
// prior-guided window (the prior steered the window away from the true
// minimum) plus pixels whose residual exceeds FallbackFactor × the
// frame's median residual. window is level 0's window function. Both
// triggers read only completed level-0 output, so the pixel set — and
// therefore the result — is deterministic at every worker count.
func pyramidFallback(ctx context.Context, prep *Prepared, opt Options, workers int, res *Result,
	window func(x, y int) (hypWindow, bool), st *PyramidStats) error {
	w, h := prep.W, prep.H
	full := fullWindow(prep.P)
	need := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			win, _ := window(x, y)
			u, v := res.Flow.At(x, y)
			hx, hy := int(u), int(v)
			if (win.lox > full.lox && hx == win.lox) || (win.hix < full.hix && hx == win.hix) ||
				(win.loy > full.loy && hy == win.loy) || (win.hiy < full.hiy && hy == win.hiy) {
				need[y*w+x] = true
				st.EdgeFallbacks++
			}
		}
	}
	factor := opt.Pyramid.FallbackFactor
	if factor == 0 {
		factor = DefaultFallbackFactor
	}
	if factor > 0 {
		thr := factor * medianFloat32(res.Err.Data)
		if thr < fallbackResidualFloor {
			thr = fallbackResidualFloor
		}
		for i, e := range res.Err.Data {
			if float64(e) > thr && !need[i] {
				need[i] = true
				st.ResidualFallbacks++
			}
		}
	}
	st.FallbackPixels = st.EdgeFallbacks + st.ResidualFallbacks
	if st.FallbackPixels == 0 {
		return nil
	}
	extra, err := trackTiles(ctx, prep, nil, opt, workers, res, func(x, y int) (hypWindow, bool) {
		return full, need[y*w+x]
	})
	st.Hypotheses += extra
	return err
}

// medianFloat32 is the lower median of vs (deterministic for even
// lengths), computed in float64.
func medianFloat32(vs []float32) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := make([]float64, len(vs))
	for i, v := range vs {
		s[i] = float64(v)
	}
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

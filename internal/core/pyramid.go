package core

import (
	"context"
	"fmt"
)

// The pyramid option (docs/PERFORMANCE.md §9) selects the summed-window
// exhaustive search (summed.go), which evaluates every hypothesis of the
// ±NZS window at O(1) work per (pixel, hypothesis). The option keeps its
// name and its wire form so existing callers and requests keep working.

// PyramidOptions selects the search. The zero value (Levels <= 1) keeps
// the lane kernel, bit-identical to TrackPreparedReference like every
// other default.
type PyramidOptions struct {
	// Levels > 1 selects the summed-window exhaustive search; which
	// value above 1 makes no difference.
	Levels int
}

// Enabled reports whether the options select the summed-window search.
func (po PyramidOptions) Enabled() bool { return po.Levels > 1 }

// PyramidStats reports the search's work. The counters are sums over
// pixels and do not depend on worker scheduling.
type PyramidStats struct {
	// Pixels is the tracked pixel count.
	Pixels int64 `json:"pixels"`
	// Hypotheses counts every hypothesis evaluation: Pixels·(2·NZS+1)²,
	// because both searches this entry point runs are exhaustive.
	Hypotheses int64 `json:"hypotheses"`
	// FallbackPixels is always 0; the counter stays for callers that
	// still report it.
	FallbackPixels int64 `json:"fallback_pixels"`
}

// TrackPyramidPreparedCtx runs the search Options.Pyramid selects and
// reports its work. With Pyramid enabled it is the summed-window
// exhaustive search: byte-identical to TrackSummedReference at every
// worker count, and in argmin agreement with TrackPrepared up to float
// rounding (the window sums reassociate the lane kernel's template
// sums). Otherwise, and when Robust is set, it is
// TrackPreparedParallelCtx's lane kernel, which is exhaustive too: the
// Huber refinement re-weights per hypothesis from per-pixel residuals,
// which no window sum expresses. Continuous model only.
func TrackPyramidPreparedCtx(ctx context.Context, prep *Prepared, opt Options, workers int) (*Result, *PyramidStats, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if prep.P.SemiFluid() {
		return nil, nil, fmt.Errorf("core: pyramid search requires the continuous model (NSS = 0)")
	}
	var res *Result
	var err error
	if opt.Pyramid.Enabled() && !opt.Robust {
		res, err = trackSummed(ctx, prep, opt, workers)
	} else {
		res, err = TrackPreparedParallelCtx(ctx, prep, nil, opt, workers)
	}
	if err != nil {
		return nil, nil, err
	}
	px := int64(prep.W) * int64(prep.H)
	return res, &PyramidStats{Pixels: px, Hypotheses: px * int64(prep.P.Hypotheses())}, nil
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

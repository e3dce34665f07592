package core

import (
	"context"
	"errors"
)

// The pyramid option (docs/PERFORMANCE.md §9) selects the summed-window
// exhaustive search (summed.go), the block kernel's mode that evaluates
// every hypothesis of the ±NZS window at O(1) work per (pixel,
// hypothesis). The option keeps its name and its wire form so existing
// callers and requests keep working.

// PyramidOptions selects the search. The zero value (Levels <= 1) keeps
// the block kernel, bit-identical to TrackPreparedReference like every
// other default.
type PyramidOptions struct {
	// Levels > 1 selects the summed-window exhaustive search; which
	// value above 1 makes no difference.
	Levels int
}

// Enabled reports whether the options select the summed-window search.
func (po PyramidOptions) Enabled() bool { return po.Levels > 1 }

// Check reports whether the options can run with p: the summed-window
// search and its oracle support the continuous model only. Every entry
// point that takes the option checks it here.
func (po PyramidOptions) Check(p Params) error {
	if po.Enabled() && p.SemiFluid() {
		return errors.New("core: the pyramid search requires the continuous model (NSS = 0)")
	}
	return nil
}

// summed reports whether o selects the block kernel's summed mode: the
// pyramid option, unless Robust — the Huber refinement re-weights per
// hypothesis from per-pixel residuals, which no window sum expresses.
func (o Options) summed() bool { return o.Pyramid.Enabled() && !o.Robust }

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

// TrackPyramidPreparedCtx is TrackPreparedParallelCtx on the continuous
// model (no semi-fluid map) plus the search's work. With Pyramid enabled
// it is the summed-window exhaustive search: byte-identical to
// TrackSummedReference at every worker count, and in argmin agreement
// with TrackPrepared up to float rounding (the window sums reassociate
// the exact kernel's template sums). Otherwise, and when Robust is set,
// it is the exact block kernel, which is exhaustive too.
func TrackPyramidPreparedCtx(ctx context.Context, prep *Prepared, opt Options, workers int) (*Result, *PyramidStats, error) {
	// Continuous model only, with the option off too: sm is nil here.
	if err := (PyramidOptions{Levels: 2}).Check(prep.P); err != nil {
		return nil, nil, err
	}
	res, err := TrackPreparedParallelCtx(ctx, prep, nil, opt, workers)
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

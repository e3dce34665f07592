package core

import (
	"context"
	"fmt"
)

// TrackPreparedParallel runs the hypothesis search on already-prepared
// geometry with worker goroutines claiming blocks off a work-stealing
// index (0 workers = GOMAXPROCS; block shape from blockShape). Blocks
// are disjoint and the inputs read-only, so the result is bit-identical
// to TrackPrepared at every worker count and block shape — the property
// the streaming pipeline's parallel mode relies on.
func TrackPreparedParallel(prep *Prepared, sm *SemiMap, opt Options, workers int) *Result {
	//smavet:allow errdiscard,ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root, so the error is impossible
	res, _ := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, workers)
	return res
}

// TrackPreparedParallelCtx is TrackPreparedParallel with cooperative
// cancellation: ctx is polled between the hypotheses of every block, so
// when ctx is cancelled mid-search each worker finishes at most the
// hypothesis it is scoring, and the call returns (nil, ctx.Err()).
// Completed runs are bit-identical to TrackPrepared at every worker
// count and block shape — this is the cancellation point a serving
// deadline threads down to.
func TrackPreparedParallelCtx(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if opt.Pyramid.Enabled() {
		// The summed-window search (summed.go). Continuous model only,
		// so sm is always nil there. Robust stays on the block kernel
		// below (see TrackPyramidPreparedCtx).
		if sm != nil {
			return nil, fmt.Errorf("core: pyramid search requires the continuous model (NSS = 0)")
		}
		if !opt.Robust {
			res, _, err := TrackPyramidPreparedCtx(ctx, prep, opt, workers)
			return res, err
		}
	}
	return trackBlocks(ctx, prep, sm, opt, fullWindow(prep.P), workers)
}

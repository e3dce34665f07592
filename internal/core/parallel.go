package core

import "context"

// TrackPreparedParallelCtx runs the hypothesis search on already-prepared
// geometry with worker goroutines claiming blocks off a work-stealing
// index (0 workers = GOMAXPROCS; block shape from blockShape).
//
// Blocks are disjoint and the inputs read-only, so a completed run is
// bit-identical to TrackPrepared at every worker count and block shape —
// the property the streaming pipeline's parallel mode relies on, and the
// one the search's differential oracle (oracle_test.go) checks on every
// block shape from 1×1 to wider than the image.
//
// ctx is polled between the hypotheses of every block, so when ctx is
// cancelled mid-search each worker finishes at most the hypothesis it is
// scoring, and the call returns (nil, ctx.Err()) — this is the
// cancellation point a serving deadline threads down to. A nil ctx never
// cancels; a caller with no deadline passes the context.Background() of
// its package main (or its test) rather than a nil.
//
// With Options.Pyramid (and not Robust) the block kernel runs in its
// summed mode instead (summed.go): byte-identical to
// TrackSummedReference at every worker count. Options.Pyramid needs the
// continuous model: with NSS > 0 the call returns PyramidOptions.Check's
// error.
func TrackPreparedParallelCtx(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if err := opt.Pyramid.Check(prep.P); err != nil {
		return nil, err
	}
	return trackBlocks(ctx, prep, sm, opt, workers)
}

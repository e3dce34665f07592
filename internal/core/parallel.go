package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
)

// TrackPreparedParallel runs the hypothesis search on already-prepared
// geometry with worker goroutines claiming pixel tiles off a
// work-stealing index (0 workers = GOMAXPROCS; tile size from
// chooseTileSize). Tiles are disjoint and the inputs read-only, so the
// result is bit-identical to TrackPrepared at every worker count and
// tile size — the property the streaming pipeline's parallel mode
// relies on.
func TrackPreparedParallel(prep *Prepared, sm *SemiMap, opt Options, workers int) *Result {
	//smavet:allow errdiscard,ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root, so the error is impossible
	res, _ := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, workers)
	return res
}

// TrackPreparedParallelCtx is TrackPreparedParallel with cooperative
// cancellation: when ctx is cancelled mid-search no further tile rows
// start, workers finish at most their current row each (forEachTileRow
// polls ctx before every row), and the call returns (nil, ctx.Err()).
// Completed runs are bit-identical to TrackPrepared at every worker
// count and tile size — this is the cancellation point a serving
// deadline threads down to.
func TrackPreparedParallelCtx(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if opt.Pyramid.Enabled() {
		// Coarse-to-fine accelerated search (pyramid.go). Continuous
		// model only; sm is always nil there. Requests without prepared
		// coarse levels degrade to the exhaustive sweep inside the
		// driver.
		if sm != nil {
			return nil, fmt.Errorf("core: pyramid search requires the continuous model (NSS = 0)")
		}
		res, _, err := TrackPyramidPreparedCtx(ctx, prep, opt, workers)
		return res, err
	}
	full := fullWindow(prep.P)
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	if _, err := trackTiles(ctx, prep, sm, opt, workers, res, func(x, y int) (hypWindow, bool) {
		return full, true
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// trackTiles is the body of every tiled driver: workers goroutines (0 =
// GOMAXPROCS) claim pixel tiles and run searchWindow on each pixel over
// the window that window returns for it, skipping pixels for which it
// returns false, and store the winners in res. Each worker owns a
// tracker (scratch buffers are not shared) and pixels are written to
// disjoint result cells, so any pixel→worker assignment yields the same
// bits. It returns the number of hypotheses searched, summed once per
// row, so the count does not depend on the schedule either.
func trackTiles(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers int, res *Result,
	window func(x, y int) (hypWindow, bool)) (int64, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w, h := prep.W, prep.H
	tw, th := opt.tileW, opt.tileH
	if side := chooseTileSize(prep.P, w, h, workers); tw <= 0 {
		tw = side
		if th <= 0 {
			th = side
		}
	} else if th <= 0 {
		th = tw
	}
	var hyps atomic.Int64
	err := forEachTileRow(ctx, newTileGrid(w, h, tw, th), workers, func() func(t tileRect, y int) {
		t := newTracker(prep, sm, opt)
		return func(tile tileRect, y int) {
			var rowHyps int64
			for x := tile.X0; x < tile.X1; x++ {
				win, ok := window(x, y)
				if !ok {
					continue
				}
				hx, hy, eps, theta := t.searchWindow(x, y, win)
				res.set(x, y, hx, hy, eps, theta)
				rowHyps += win.size()
			}
			if rowHyps > 0 {
				hyps.Add(rowHyps)
			}
		}
	})
	return hyps.Load(), err
}

package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
)

// Pixel-tile work partitioning for the parallel drivers. The image is
// cut into fixed-size rectangular tiles which workers claim through a
// single atomic work-stealing index: the search kernels claim whole
// tiles (their blocks, forEachTile), the semi-fluid map build claims
// tiles row by row (forEachTileRow), so its cancellation keeps row
// granularity — after cancel every worker finishes at most the row it is
// on. Tiles replace a per-row channel fan-out because a channel
// rendezvous per row cost more than a short row's work at small sizes,
// while an atomic add per tile amortizes scheduling over TW×TH pixels
// (model in docs/PERFORMANCE.md §7).

const (
	// tileL2Budget is the per-core cache footprint a tile's working set
	// should stay under — half a typical 1 MiB L2, leaving room for the
	// tracker scratch and the semi-fluid map.
	tileL2Budget = 512 << 10
	// tileBytesPerPixel: the hypothesis search reads the three float32
	// normal components of frame 2 per visited pixel.
	tileBytesPerPixel = 12
	// tileMinSide keeps per-tile scheduling overhead negligible even on
	// tiny inputs.
	tileMinSide = 8
	// tileBalanceFactor: keep at least this many tiles per worker so the
	// work-stealing index can even out per-tile cost variance (border
	// tiles take the slow normal path; early-exit rates differ by scene).
	tileBalanceFactor = 4
)

// chooseTileSize picks the tile side from the cache model in
// docs/PERFORMANCE.md §7: scoring a pixel touches the three normal
// fields in a halo of template+search+semi-fluid reach around it, so a
// side-s tile's working set is tileBytesPerPixel·(s+2·halo)² bytes.
// The cache bound solves that against tileL2Budget; the balance bound
// caps the side so at least tileBalanceFactor·workers tiles exist. The
// choice is pure scheduling — any side produces bit-identical results.
func chooseTileSize(p Params, w, h, workers int) int {
	halo := p.TemplateRX() + p.SearchRX() + p.NSS
	side := int(math.Sqrt(float64(tileL2Budget)/tileBytesPerPixel)) - 2*halo
	if workers > 0 {
		perTile := float64(w) * float64(h) / float64(tileBalanceFactor*workers)
		if bal := int(math.Ceil(math.Sqrt(perTile))); bal < side {
			side = bal
		}
	}
	if side < tileMinSide {
		side = tileMinSide
	}
	// Degenerate-grid guard (tiny inputs, down to 1×N grids):
	// when the minimum side would leave fewer tiles than workers, shrink
	// it — down to single-pixel tiles on the tiniest grids — so every
	// worker can claim at least one valid tile. The halo term above can
	// drive the cache bound negative on such grids; this bound, not the
	// cache model, is what keeps the tiling sane there.
	tilesFor := func(s int) int {
		return ((w + s - 1) / s) * ((h + s - 1) / s)
	}
	if workers > 1 {
		for side > 1 && tilesFor(side) < workers && tilesFor(side) < w*h {
			side--
		}
	}
	return side
}

// tileRect is a half-open pixel rectangle [X0,X1)×[Y0,Y1).
type tileRect struct {
	X0, Y0, X1, Y1 int
}

// tileGrid partitions a W×H image into TW×TH tiles in row-major order;
// edge tiles at the right/bottom are clipped to the image.
type tileGrid struct {
	W, H, TW, TH, NX, NY int
}

func newTileGrid(w, h, tw, th int) tileGrid {
	if tw < 1 {
		tw = 1
	}
	if th < 1 {
		th = 1
	}
	g := tileGrid{W: w, H: h, TW: tw, TH: th}
	g.NX = (w + tw - 1) / tw
	g.NY = (h + th - 1) / th
	return g
}

func (g tileGrid) tiles() int { return g.NX * g.NY }

func (g tileGrid) tile(i int) tileRect {
	tx, ty := i%g.NX, i/g.NX
	r := tileRect{X0: tx * g.TW, Y0: ty * g.TH}
	r.X1 = r.X0 + g.TW
	if r.X1 > g.W {
		r.X1 = g.W
	}
	r.Y1 = r.Y0 + g.TH
	if r.Y1 > g.H {
		r.Y1 = g.H
	}
	return r
}

// forEachTile runs the grid's tiles across workers goroutines. Each
// goroutine obtains its own tile visitor from newWorker (per-worker
// scratch lives in that closure), then claims tiles off a shared atomic
// index until none are left or a visit returns false — the visitor's
// report that it saw ctx cancelled. All goroutines are joined before
// return. Returns ctx.Err() — nil on a completed run.
func forEachTile(ctx context.Context, g tileGrid, workers int, newWorker func() func(t tileRect) bool) error {
	n := int64(g.tiles())
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visit := newWorker()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= n || !visit(g.tile(int(i))) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// forEachTileRow is forEachTile walking each claimed tile row by row.
// ctx is polled without blocking before every row, so after cancellation
// each worker finishes at most its current row and no further rows start.
func forEachTileRow(ctx context.Context, g tileGrid, workers int, newWorker func() func(t tileRect, y int)) error {
	done := ctx.Done()
	return forEachTile(ctx, g, workers, func() func(t tileRect) bool {
		visit := newWorker()
		return func(t tileRect) bool {
			for y := t.Y0; y < t.Y1; y++ {
				select {
				case <-done:
					return false
				default:
				}
				visit(t, y)
			}
			return true
		}
	})
}

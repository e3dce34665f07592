package core

import (
	"context"
	"math"
	"runtime"

	"sma/internal/grid"
)

// SemiMap is the precomputed semi-fluid template mapping (paper eq. 9 and
// §4.1): for every image pixel p and every hypothesis offset h in the
// search area, the small displacement δ(p, h) that best re-matches the
// intensity-surface discriminant patch around p at time t against patches
// around p+h+δ at time t+1.
//
// Because the template neighborhoods of adjacent tracked pixels overlap,
// the mapping for (template pixel, hypothesis offset) is shared across all
// tracked pixels — the paper's key precomputation: "it is more efficient
// to pre-compute the template mapping for all pixels ... a template
// mapping is computed for each pixel (xs, ys) in the (2·Nzs+1)×(2·Nzs+1)
// neighborhood".
type SemiMap struct {
	W, H   int
	RX, RY int // search radii (hypothesis window) per axis
	NSS    int
	// DX/DY store δ per (pixel, hypothesis): index = (y·W + x)·hyps + hIdx.
	DX, DY []int8
}

// hyps returns the hypothesis count per pixel.
func (s *SemiMap) hyps() int { return (2*s.RX + 1) * (2*s.RY + 1) }

// hypIndex linearizes a hypothesis offset (hx, hy) ∈ [−RX, RX]×[−RY, RY].
func (s *SemiMap) hypIndex(hx, hy int) int {
	return (hy+s.RY)*(2*s.RX+1) + (hx + s.RX)
}

// covers reports whether hypothesis offset (hx, hy) has semi-map entries;
// a nil map (the continuous model) covers none.
func (s *SemiMap) covers(hx, hy int) bool {
	return s != nil && hx >= -s.RX && hx <= s.RX && hy >= -s.RY && hy <= s.RY
}

// Delta returns the semi-fluid adjustment δ for pixel (x, y) under
// hypothesis offset (hx, hy). Offsets outside the precomputed search
// window (possible under prior-guided search) return δ = 0.
func (s *SemiMap) Delta(x, y, hx, hy int) (dx, dy int) {
	if !s.covers(hx, hy) {
		return 0, 0
	}
	i := (y*s.W+x)*s.hyps() + s.hypIndex(hx, hy)
	return int(s.DX[i]), int(s.DY[i])
}

// BuildSemiMap is BuildSemiMapCtx on one worker without cancellation —
// the serial call every offline caller uses.
func BuildSemiMap(prep *Prepared) *SemiMap {
	//smavet:allow errdiscard,ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root, so the error is impossible
	sm, _ := BuildSemiMapCtx(context.Background(), prep, 1)
	return sm
}

// BuildSemiMapCtx precomputes the semi-fluid template mapping for every
// pixel and hypothesis on workers goroutines (0 = GOMAXPROCS). For
// NSS = 0 (continuous model) it returns a nil map: Fsemi degenerates to
// Fcont ("when Nss = 0 then Fsemi reduces to the mapping Fcont").
//
// Matching minimizes fsemi(p; q) = Σ over the (2·NST+1)² patch of
// (D′(q+s) − D(p+s))² — the discriminant-change measure of eqs. 10–11 —
// over q = p+h+δ, |δ|∞ ≤ NSS. δ = (0, 0) is evaluated first and ties are
// broken in its favor (then scan order), so featureless regions keep the
// continuous mapping and results are deterministic. When extra
// multispectral channels are prepared (paper §6: "using multispectral
// information"), the discriminant differences are summed across all
// channels.
//
// fsemi depends on h and δ only through the total displacement d = h+δ,
// and each of its terms e_d(u) = (D′(u+d) − D(u))² only through the
// patch sample u = p+s, which the (2·NST+1)² patches around u share.
// Each worker therefore keeps the terms of 2·NST+1 rows for every
// channel and total displacement (semiPlanes), adds one row per output
// row, sums each fsemi(p, d) from the stored terms and takes each
// hypothesis's argmin over δ. The terms and the sums are the very values
// the per-(h, δ) evaluation computes, in the same order, so the map is
// bit-identical to it at every worker count.
//
// Rows are claimed through the tile scheduler, which polls ctx before
// every row: after cancellation each worker finishes at most its current
// row and the call returns (nil, ctx.Err()).
func BuildSemiMapCtx(ctx context.Context, prep *Prepared, workers int) (*SemiMap, error) {
	return buildSemiMapCtx(ctx, prep, workers, nil)
}

// buildSemiMapCtx is BuildSemiMapCtx with a row hook: rowStart, when
// non-nil, runs as each row starts (the cancellation test counts rows
// with it).
func buildSemiMapCtx(ctx context.Context, prep *Prepared, workers int, rowStart func()) (*SemiMap, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := prep.P
	if !p.SemiFluid() {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w, h := prep.W, prep.H
	rx, ry := p.SearchRX(), p.SearchRY()
	hyps := (2*rx + 1) * (2*ry + 1)
	sm := &SemiMap{W: w, H: h, RX: rx, RY: ry, NSS: p.NSS,
		DX: make([]int8, w*h*hyps), DY: make([]int8, w*h*hyps)}
	side := chooseTileSize(p, w, h, workers)
	strip, chunk := semiScratchShape(p, 1+len(prep.Extra), side)
	err := forEachTileRow(ctx, newTileGrid(w, h, strip, side), workers, func() func(t tileRect, y int) {
		s := newSemiPlanes(prep, strip, chunk)
		return func(t tileRect, y int) {
			if rowStart != nil {
				rowStart()
			}
			s.mapRow(t, y, sm)
		}
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}

// semiLanes is how many adjacent pixels sumPatches sums at once:
// independent accumulators let their additions overlap instead of
// waiting on one float64 add chain. Rows narrower than semiLanes are
// summed as semiLanes pixels wide, the extra pixels' sums unused.
const semiLanes = 8

// semiScratchShape sizes a worker's scratch from tileL2Budget, for tiles
// of side rows and channels discriminant channels: strip is the tile
// width, the widest (≤ side) whose terms for every displacement and
// their fsemi keys fit the budget, and chunk is how many total
// displacements the term rows hold — all of them unless even a
// semiLanes-wide strip's do not fit, as with very large NSS, NZS or NST.
// Like the tile side, both are pure scheduling: any shape produces the
// same map.
func semiScratchShape(p Params, channels, side int) (strip, chunk int) {
	nd := (2*(p.SearchRX()+p.NSS) + 1) * (2*(p.SearchRY()+p.NSS) + 1)
	n := 2*p.NST + 1
	// Bytes per strip column: 8·nd·(channels·n + 1); the term rows add
	// 2·NST padding columns per channel, displacement and row.
	perCol := 8 * nd * (channels*n + 1)
	pad := 8 * nd * channels * n * 2 * p.NST
	strip = min(side, max(semiLanes, (tileL2Budget-pad)/perCol))
	gw := max(strip, semiLanes)
	chunk = (tileL2Budget - 8*nd*gw) / (8 * channels * n * (gw + 2*p.NST))
	return strip, min(nd, max(1, chunk))
}

// semiPlanes is one worker's scratch for the semi-fluid map of tiles up
// to its strip width.
//
// ring holds the per-displacement term planes: for channel c, total
// displacement d (table raster order, the first chunk of them) and
// padded row r ∈ [y−NST, y+NST] of output row y, ring slot (r+NST) mod n
// holds e_c,d(u) = float64(D′_c(clamp(u+d)) − D_c(clamp(u)))² for
// u = (x0−NST+i, r), i < rw, at ring[((c·chunk + d)·n + slot)·rw + i].
// keys holds semiKey(fsemi(p, d)) of the output row's pixels at
// keys[d·kw + x−x0].
type semiPlanes struct {
	ch     []ExtraChannel // channel 0 is the intensity discriminant
	w      int
	rx, ry int
	nst, n int // patch radius and edge 2·NST+1
	ex, ey int // total-displacement reach: RX+NSS, RY+NSS
	tw     int // displacement table row length 2·EX+1
	nd     int // total displacements (2·EX+1)·(2·EY+1)
	chunk  int // displacements the term rows hold at once
	kw, rw int // key row and term row strides: strip width (≥ semiLanes) and kw+2·NST
	ring   []float64
	keys   []uint64
	slot   []int     // ring row offset slot·rw of patch row sy, for the current output row
	row0   []float32 // clamped copy of a D row
	row1   []float32 // clamped copy of a D′ row (EX wider on each side)
	tile   tileRect  // the tile whose rows the ring holds, up to row next−1+NST
	next   int
	// δ ≠ (0, 0) in scan order: keys offset, and the components with
	// δ = (0, 0) prepended at index 0.
	nbrOff       []int
	nbrDX, nbrDY []int8
	best         []uint64 // argminRow's running minimum and its δ index per pixel
	bj           []int32
}

func newSemiPlanes(prep *Prepared, strip, chunk int) *semiPlanes {
	p := prep.P
	s := &semiPlanes{
		ch: append([]ExtraChannel{{D0: prep.D0, D1: prep.D1}}, prep.Extra...),
		w:  prep.W,
		rx: p.SearchRX(), ry: p.SearchRY(),
		nst: p.NST, n: 2*p.NST + 1,
		chunk: chunk,
		kw:    max(strip, semiLanes),
		next:  -1,
		nbrDX: []int8{0}, nbrDY: []int8{0},
	}
	s.ex, s.ey = s.rx+p.NSS, s.ry+p.NSS
	s.tw = 2*s.ex + 1
	s.nd = s.tw * (2*s.ey + 1)
	s.rw = s.kw + 2*s.nst
	for dy := -p.NSS; dy <= p.NSS; dy++ {
		for dx := -p.NSS; dx <= p.NSS; dx++ {
			if dx != 0 || dy != 0 {
				s.nbrOff = append(s.nbrOff, (dy*s.tw+dx)*s.kw)
				s.nbrDX = append(s.nbrDX, int8(dx))
				s.nbrDY = append(s.nbrDY, int8(dy))
			}
		}
	}
	s.ring = make([]float64, len(s.ch)*chunk*s.n*s.rw)
	s.keys = make([]uint64, s.nd*s.kw)
	s.best = make([]uint64, s.kw)
	s.bj = make([]int32, s.kw)
	s.slot = make([]int, s.n)
	s.row0 = make([]float32, s.rw)
	s.row1 = make([]float32, s.rw+2*s.ex)
	return s
}

// mapRow fills δ for every hypothesis of output row y's pixels in tile t.
// When the ring holds every displacement and already holds rows up to
// y−1+NST of this tile, it adds row y+NST; otherwise (a new tile, or
// displacements in chunks) it fills all 2·NST+1 rows first.
func (s *semiPlanes) mapRow(t tileRect, y int, sm *SemiMap) {
	gw := max(t.X1-t.X0, semiLanes)
	for sy := range s.slot {
		s.slot[sy] = (y + sy) % s.n * s.rw
	}
	lo := y - s.nst
	if s.chunk == s.nd && t == s.tile && y == s.next {
		lo = y + s.nst
	}
	for d0 := 0; d0 < s.nd; d0 += s.chunk {
		d1 := min(d0+s.chunk, s.nd)
		for r := lo; r <= y+s.nst; r++ {
			s.addRow(t.X0, gw, r, d0, d1)
		}
		s.sumPatches(gw, d0, d1)
	}
	s.tile, s.next = t, y+1

	hyps := sm.hyps()
	width := t.X1 - t.X0
	k := 0
	for hy := -s.ry; hy <= s.ry; hy++ {
		for hx := -s.rx; hx <= s.rx; hx++ {
			bj := s.argminRow(((hy+s.ey)*s.tw+hx+s.ex)*s.kw, width)
			o := (y*s.w+t.X0)*hyps + k
			for _, j := range bj {
				sm.DX[o], sm.DY[o] = s.nbrDX[j], s.nbrDY[j]
				o += hyps
			}
			k++
		}
	}
}

// addRow stores padded row r's terms, columns x0−NST … x0+gw+NST−1, for
// displacements [d0, d1) in ring slot (r+NST) mod n. The D and D′ rows
// are read in place when their span lies inside the grid and through
// grid.At's edge clamp otherwise, so every term is the one the
// per-(h, δ) evaluation forms at that patch sample.
func (s *semiPlanes) addRow(x0, gw, r, d0, d1 int) {
	m := gw + 2*s.nst
	slot := (r + s.nst) % s.n * s.rw
	for c, ch := range s.ch {
		a0 := clampedRow(ch.D0, x0-s.nst, r, m, s.row0)
		var a1 []float32
		dyRow := math.MinInt
		for d := d0; d < d1; d++ {
			if dy := d / s.tw; dy != dyRow {
				dyRow = dy
				a1 = clampedRow(ch.D1, x0-s.nst-s.ex, r+dy-s.ey, m+2*s.ex, s.row1)
			}
			q := a1[d%s.tw:][:len(a0)]
			o := (c*s.chunk+d-d0)*s.n*s.rw + slot
			e := s.ring[o : o+len(a0)]
			for i, a := range a0 {
				v := float64(q[i] - a)
				e[i] = v * v
			}
		}
	}
}

// clampedRow returns samples x0 … x0+m−1 of row y of g as grid.At serves
// them: a slice of g's row when the span lies inside the grid, else an
// edge-clamped copy in buf.
func clampedRow(g *grid.Grid, x0, y, m int, buf []float32) []float32 {
	if x0 >= 0 && x0+m <= g.W {
		y = min(max(y, 0), g.H-1)
		return g.Data[y*g.W+x0 : y*g.W+x0+m]
	}
	g.CropInto(buf[:m], x0, y, m, 1)
	return buf[:m]
}

// sumPatches stores the keys of fsemi(p, d) for the output row's first gw
// pixels and displacements [d0, d1): the sum over channels, then patch
// rows, then columns of the stored terms — the order eqs. 10–11 are
// evaluated in per (h, δ), so each key is bit-identical to a direct
// evaluation's. semiLanes adjacent pixels are summed side by side, each
// in its own accumulator; a row's last group is shifted left to end at
// the row's edge, recomputing (identically) the sums it overlaps.
func (s *semiPlanes) sumPatches(gw, d0, d1 int) {
	n := s.n
	for d := d0; d < d1; d++ {
		keys := s.keys[d*s.kw : d*s.kw+gw]
		for x := 0; x < gw; x += semiLanes {
			if x+semiLanes > gw {
				x = gw - semiLanes
			}
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for c := range s.ch {
				plane := s.ring[(c*s.chunk+d-d0)*n*s.rw:]
				for _, off := range s.slot {
					// Patch columns sx = 0 … n−1: q starts at column x+sx.
					// The loop exits at its bottom, so each accumulator's
					// only use is its add and the loads fold into the adds;
					// a counted loop spills an accumulator instead.
					q := plane[off+x : off+x+n+semiLanes-1]
					for {
						_ = q[semiLanes-1]
						a0 += q[0]
						a1 += q[1]
						a2 += q[2]
						a3 += q[3]
						a4 += q[4]
						a5 += q[5]
						a6 += q[6]
						a7 += q[7]
						if len(q) <= semiLanes {
							break
						}
						q = q[1:]
					}
				}
			}
			k := keys[x : x+semiLanes : x+semiLanes]
			k[0], k[1], k[2], k[3] = semiKey(a0), semiKey(a1), semiKey(a2), semiKey(a3)
			k[4], k[5], k[6], k[7] = semiKey(a4), semiKey(a5), semiKey(a6), semiKey(a7)
		}
	}
}

// argminRow takes one hypothesis's δ for the row's first width pixels,
// from the keys of its centre displacement (keys offset c) and of its
// neighbours (s.nbrOff): δ = (0, 0) first, then scan order with a strict
// <, so ties keep the earlier δ. It returns, per pixel, the index of δ
// in s.nbrDX/s.nbrDY. Keys are semiKey(score), whose integer order is
// the float order, so each comparison is one unsigned compare feeding
// conditional moves, run pixel by pixel across the row, instead of an
// unpredictable float branch. A NaN centre keeps δ = (0, 0), as no float
// compares less than NaN: it starts from key 0, which no key is below.
// NaN neighbours carry the top key, so they never win.
func (s *semiPlanes) argminRow(c, width int) []int32 {
	best, bj := s.best[:width], s.bj[:width]
	for x, v := range s.keys[c : c+width] {
		if v == semiNaNKey {
			v = 0
		}
		best[x], bj[x] = v, 0
	}
	for j, o := range s.nbrOff {
		keys, jj := s.keys[c+o:][:len(best)], int32(j+1)
		for x, b := range best {
			v, i := keys[x], bj[x]
			if v < b { // compiled to conditional moves, not a branch
				b, i = v, jj
			}
			best[x], bj[x] = b, i
		}
	}
	return bj
}

// semiNaNKey is semiKey(NaN): above every other key, +Inf's included.
const semiNaNKey = math.MaxUint64

// semiKey maps an fsemi score to an integer with the same order. Scores
// are sums of squares, so they are +0, positive, +Inf or NaN, never
// negative or −0, and non-negative float64 bit patterns sort like the
// numbers they encode.
func semiKey(v float64) uint64 {
	if v != v {
		return semiNaNKey
	}
	return math.Float64bits(v)
}

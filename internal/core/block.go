package core

import (
	"context"
	"math"
	"runtime"

	"sma/internal/la"
	"sma/internal/surface"
)

// Exact block kernel: the default hypothesis search (docs/PERFORMANCE.md
// §6). Every b-pass term of the score is a function of the template pixel
// p and the hypothesis h alone — the geometry (zx, zy, |n0|, 1/E, 1/G) at p
// and the after-frame normal at p + h (+ δ(p, h)) — never of the tracked
// pixel whose template covers p. The paper draws the same conclusion for
// the semi-fluid mapping: "it is more efficient to pre-compute the
// template mapping for all pixels". So the kernel runs per fixed block,
// hypothesis-outer:
//
//   - once per block pixel: accumulate A over the template in raster
//     order (the reference's arithmetic), factor it, and keep an
//     incumbent;
//   - once per hypothesis, over the padded block (the block plus the
//     template reach): build the term planes — rhs0/1/2 and accumulateB's
//     products w0·zy·rhs0, w0·−zx·rhs0, w0·−rhs0, w1·−zy·rhs1, w1·zx·rhs1,
//     w1·−rhs1 — each computed once instead of once per covering template;
//   - once per (pixel, hypothesis): the b-pass is a raster walk of seven
//     loads and eight adds per template pixel, then SolveFactored6, then
//     the bounded residual walk over the rhs planes against the live
//     incumbent.
//
// Exactness contract: every plane value is the very product accumulateB
// forms (its left-associated terms multiply first, so w0·zy·rhs0 is
// (w0·zy)·rhs0), and the walk adds them into each accumulator in the
// reference kernel's template order; no sum is reassociated. The padded
// normal planes hold exactly grid.At's clamped samples. Per pixel the
// hypotheses arrive in the reference order — the anchor first and
// unconditionally (a NaN anchor ε wins), then raster order under
// strict-< — so TrackPrepared output is bit-identical to
// TrackPreparedReference at every block shape and worker count
// (TestBlockKernelMatchesReference, the golden fixtures).

// blockSide is the side of the blocks the default search runs on. Any
// side gives the same bits; the side trades the padded block's extra
// plane work, ((s+2·NZT)/s)² per hypothesis, against the scratch that
// grows with s² (one factorization and one incumbent per pixel).
const blockSide = 16

// incumbent is the best hypothesis of a pixel's search so far.
type incumbent struct {
	hx, hy int
	eps    float64
	theta  la.Vec6
}

// normalPlanes are the after-frame unit normals (Prepared.G1) padded by
// padX columns and padY rows on every side with grid.At's edge
// replication: the padded sample at (qx, qy) is G1's sample at the
// clamped coordinates, so any read inside the pad equals NormalAt
// bit for bit. The drivers build them once per call and share them
// read-only between their workers.
type normalPlanes struct {
	padX, padY int
	w, h       int // unpadded grid size
	stride     int // w + 2*padX
	ni, nj, nk []float32
}

// padNormals pads prep's after-frame normals by the search's full reach,
// TemplateR + SearchR + NSS per axis: every hypothesis inside the ±NZS
// window, semi-fluid adjustment included, then reads inside the pad.
func padNormals(prep *Prepared) *normalPlanes {
	p := prep.P
	return padNormalsBy(prep.G1, p.TemplateRX()+p.SearchRX()+p.NSS, p.TemplateRY()+p.SearchRY()+p.NSS)
}

// padNormalsBy pads g's normals by padX/padY. A zero pad aliases g's own
// planes instead of copying them.
func padNormalsBy(g *surface.Field, padX, padY int) *normalPlanes {
	np := &normalPlanes{padX: padX, padY: padY, w: g.Ni.W, h: g.Ni.H, stride: g.Ni.W + 2*padX}
	if padX == 0 && padY == 0 {
		np.ni, np.nj, np.nk = g.Ni.Data, g.Nj.Data, g.Nk.Data
		return np
	}
	pad := func(src []float32) []float32 {
		w, h := np.w, np.h
		out := make([]float32, np.stride*(h+2*padY))
		for y := 0; y < h+2*padY; y++ {
			s := src[clampInt(y-padY, 0, h-1)*w:][:w]
			row := out[y*np.stride:][:np.stride]
			for x := 0; x < padX; x++ {
				row[x] = s[0]
				row[padX+w+x] = s[w-1]
			}
			copy(row[padX:], s)
		}
		return out
	}
	np.ni, np.nj, np.nk = pad(g.Ni.Data), pad(g.Nj.Data), pad(g.Nk.Data)
	return np
}

// windowOrder is the per-pixel hypothesis visit order over win: the
// anchor — zero displacement clamped into the window — first, then the
// window in raster order. With the tie rule (anchor unconditionally, then
// strict <) ties break toward the anchor, then scan order.
func windowOrder(win hypWindow) [][2]int {
	ax, ay := clampInt(0, win.lox, win.hix), clampInt(0, win.loy, win.hiy)
	order := make([][2]int, 0, (win.hix-win.lox+1)*(win.hiy-win.loy+1))
	order = append(order, [2]int{ax, ay})
	for dy := win.loy; dy <= win.hiy; dy++ {
		for dx := win.lox; dx <= win.hix; dx++ {
			if dx != ax || dy != ay {
				order = append(order, [2]int{dx, dy})
			}
		}
	}
	return order
}

// blockShape picks the default search's block shape for a w×h image on
// workers workers. Pure scheduling: every shape produces the same bits.
// The default side is blockSide, shrunk so that at least
// tileBalanceFactor blocks exist per worker for the work-stealing index
// to balance (but not below tileMinSide); the test hooks blockW/blockH
// override it (a height ≤ 0 means the width). A side beyond the image is
// clipped to it.
func blockShape(opt Options, w, h, workers int) (bw, bh int) {
	bw, bh = opt.blockW, opt.blockH
	if bw <= 0 {
		bw = blockSide
		if workers > 1 {
			perBlock := float64(w) * float64(h) / float64(tileBalanceFactor*workers)
			if bal := int(math.Ceil(math.Sqrt(perBlock))); bal < bw {
				bw = maxInt(bal, tileMinSide)
			}
		}
	}
	if bh <= 0 {
		bh = bw
	}
	return minInt(bw, w), minInt(bh, h)
}

// trackBlocks runs the block kernel over the hypothesis window win on
// workers goroutines (0 = GOMAXPROCS) that claim blocks off forEachTile's
// work-stealing index; ctx is polled between the hypotheses of a block.
// It returns (nil, ctx.Err()) when cancelled.
func trackBlocks(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, win hypWindow, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bw, bh := blockShape(opt, prep.W, prep.H, workers)
	g := newTileGrid(prep.W, prep.H, bw, bh)
	if workers > g.tiles() {
		workers = g.tiles()
	}
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	nrm := padNormals(prep)
	order := windowOrder(win)
	done := ctx.Done()
	err := forEachTile(ctx, g, workers, func() func(t tileRect) bool {
		k := newBlockKernel(prep, sm, opt, nrm, order, bw, bh)
		return func(t tileRect) bool {
			if !k.searchTile(done, t) {
				return false
			}
			k.storeBlock(t, res)
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// blockGeom is the hypothesis-invariant geometry of a padded block — the
// block plus the template reach, read through grid.At's clamp — in
// row-major order: the per-template-pixel values the reference derives.
type blockGeom struct {
	zx, zy, sc, w0, w1 []float64
}

func newBlockGeom(n int) blockGeom {
	return blockGeom{zx: make([]float64, n), zy: make([]float64, n), sc: make([]float64, n),
		w0: make([]float64, n), w1: make([]float64, n)}
}

// fillPadded computes the geometry of the gw×gh padded block whose first
// sample is image pixel (x0, y0).
func (bg *blockGeom) fillPadded(g0 *surface.Field, x0, y0, gw, gh int) {
	for r := 0; r < gh; r++ {
		py := y0 + r
		for c := 0; c < gw; c++ {
			px := x0 + c
			o := r*gw + c
			zx := float64(g0.Zx.At(px, py))
			zy := float64(g0.Zy.At(px, py))
			bg.zx[o], bg.zy[o] = zx, zy
			bg.sc[o] = math.Sqrt(1 + zx*zx + zy*zy)
			bg.w0[o] = 1 / float64(g0.E.At(px, py))
			bg.w1[o] = 1 / float64(g0.G.At(px, py))
		}
	}
}

// bTerm is one padded-block pixel's b-pass terms under the current
// hypothesis: accumulateB's six products, in its order, then rhs2, which
// b0 and b3 add unweighted. One bTerm fills one cache line.
type bTerm [8]float64

const (
	btW0zy  = iota // w0·zy·rhs0   → b2
	btW0nzx        // w0·−zx·rhs0  → b3
	btW0n          // w0·−rhs0     → b4
	btW1nzy        // w1·−zy·rhs1  → b0
	btW1zx         // w1·zx·rhs1   → b1
	btW1n          // w1·−rhs1     → b5
	btR2           // rhs2         → b0, b3
)

// rTerm is what the residual walk reads per padded-block pixel: the
// geometry, then the current hypothesis's three right-hand sides.
type rTerm struct {
	zx, zy, w0, w1 float64
	r0, r1, r2     float64
	_              float64
}

// blockKernel is one worker's scratch for the block kernel, sized once for
// the largest block so that blocks never allocate.
type blockKernel struct {
	prep   *Prepared
	sm     *SemiMap
	opt    Options
	nrm    *normalPlanes
	order  [][2]int
	rx, ry int
	tw, th int // template width and height

	geom blockGeom
	// bt and rt are the current hypothesis's term planes over the padded
	// block.
	bt []bTerm
	rt []rTerm

	fac  []motionFactor // per block pixel
	best []incumbent    // per block pixel

	// buf is one (pixel, hypothesis) template in reference.go's slot
	// layout, for the Huber refinement.
	buf []float64

	// noEarlyExit disables the ε early exit (test hook: the argmin must
	// be bit-identical with the exit on and off).
	noEarlyExit bool

	// Current block geometry.
	gw, gh, bw, bh int
}

func newBlockKernel(prep *Prepared, sm *SemiMap, opt Options, nrm *normalPlanes, order [][2]int, maxBW, maxBH int) *blockKernel {
	p := prep.P
	rx, ry := p.TemplateRX(), p.TemplateRY()
	k := &blockKernel{prep: prep, sm: sm, opt: opt, nrm: nrm, order: order,
		rx: rx, ry: ry, tw: 2*rx + 1, th: 2*ry + 1}
	n := (maxBW + 2*rx) * (maxBH + 2*ry)
	k.geom = newBlockGeom(n)
	k.bt = make([]bTerm, n)
	k.rt = make([]rTerm, n)
	k.fac = make([]motionFactor, maxBW*maxBH)
	k.best = make([]incumbent, maxBW*maxBH)
	if opt.Robust {
		k.buf = make([]float64, k.tw*k.th*bufStride)
	}
	return k
}

// searchTile searches every pixel of block t, leaving each pixel's winner
// in k.best (block raster order). It reports false, with the block
// unfinished, when done closes; done is polled between hypotheses.
func (k *blockKernel) searchTile(done <-chan struct{}, t tileRect) bool {
	k.bw, k.bh = t.X1-t.X0, t.Y1-t.Y0
	k.gw, k.gh = k.bw+2*k.rx, k.bh+2*k.ry
	k.prepareBlock(t)
	for n, h := range k.order {
		select {
		case <-done:
			return false
		default:
		}
		k.buildTermPlanes(t, h[0], h[1])
		k.scoreHyp(h[0], h[1], n == 0)
	}
	return true
}

// storeBlock writes block t's winners into res. Under the semi-fluid
// model the reported correspondence is the winning hypothesis plus the
// tracked pixel's own adjustment, h + δ(x, y, h): Fsemi (eq. 9) maps
// every template pixel individually, and the tracked pixel's
// after-motion location is where its own discriminant patch re-matched.
func (k *blockKernel) storeBlock(t tileRect, res *Result) {
	for j := 0; j < k.bh; j++ {
		for i := 0; i < k.bw; i++ {
			b := &k.best[j*k.bw+i]
			x, y := t.X0+i, t.Y0+j
			hx, hy := b.hx, b.hy
			if k.sm != nil {
				dx, dy := k.sm.Delta(x, y, hx, hy)
				hx += dx
				hy += dy
			}
			res.set(x, y, hx, hy, b.eps, b.theta)
		}
	}
}

// prepareBlock runs the hypothesis-invariant half of the search for block
// t: the padded block's geometry, then each pixel's normal-equation
// matrix A — accumulated over its template in raster order with
// accumulateA, as the reference does — factored once (with the ridge
// fallback solveMotion applies).
func (k *blockKernel) prepareBlock(t tileRect) {
	gw := k.gw
	g := &k.geom
	g.fillPadded(k.prep.G0, t.X0-k.rx, t.Y0-k.ry, gw, k.gh)
	for j := 0; j < k.bh; j++ {
		for i := 0; i < k.bw; i++ {
			var a la.Mat6
			for r := 0; r < k.th; r++ {
				o := (j+r)*gw + i
				zx, zy := g.zx[o:][:k.tw], g.zy[o:][:k.tw]
				w0, w1 := g.w0[o:][:k.tw], g.w1[o:][:k.tw]
				for c := range zx {
					accumulateA(&a, zx[c], zy[c], w0[c], w1[c])
				}
			}
			symmetrize(&a)
			k.fac[j*k.bw+i].factorMotion(&a)
		}
	}
}

// buildTermPlanes fills k.bt and k.rt for hypothesis (hx, hy) over the
// padded block of t. Template pixel p reads the after-frame normal at p + h,
// displaced by δ(p, h) when p is in the image and h has a semi-map entry.
// A hypothesis whose reach stays inside the padded normals (every one of
// the ±NZS window does) reads them by index; any other reads through
// NormalAt's clamp, which yields the same samples.
func (k *blockKernel) buildTermPlanes(t tileRect, hx, hy int) {
	sm, nrm := k.sm, k.nrm
	W, H := k.prep.W, k.prep.H
	semi := sm != nil && hx >= -sm.RX && hx <= sm.RX && hy >= -sm.RY && hy <= sm.RY
	m := 0
	var hi, hyps int
	if semi {
		m = sm.NSS
		hi = sm.hypIndex(hx, hy)
		hyps = sm.hyps()
	}
	x0, y0 := t.X0-k.rx, t.Y0-k.ry
	padded := x0+hx-m >= -nrm.padX && x0+k.gw-1+hx+m < nrm.w+nrm.padX &&
		y0+hy-m >= -nrm.padY && y0+k.gh-1+hy+m < nrm.h+nrm.padY
	g := &k.geom
	g1 := k.prep.G1
	for r := 0; r < k.gh; r++ {
		py := y0 + r
		rowSemi := semi && py >= 0 && py < H
		for c := 0; c < k.gw; c++ {
			px := x0 + c
			qx, qy := px+hx, py+hy
			if rowSemi && px >= 0 && px < W {
				d := (py*W+px)*hyps + hi
				qx += int(sm.DX[d])
				qy += int(sm.DY[d])
			}
			var ni, nj, nk float64
			if padded {
				q := (qy+nrm.padY)*nrm.stride + qx + nrm.padX
				ni, nj, nk = float64(nrm.ni[q]), float64(nrm.nj[q]), float64(nrm.nk[q])
			} else {
				ni, nj, nk = g1.NormalAt(qx, qy)
			}
			o := r*k.gw + c
			zx, zy, sc, w0, w1 := g.zx[o], g.zy[o], g.sc[o], g.w0[o], g.w1[o]
			rhs0 := sc*ni + zx
			rhs1 := sc*nj + zy
			rhs2 := sc*nk - 1
			k.bt[o] = bTerm{w0 * zy * rhs0, w0 * -zx * rhs0, w0 * -rhs0,
				w1 * -zy * rhs1, w1 * zx * rhs1, w1 * -rhs1, rhs2}
			k.rt[o] = rTerm{zx: zx, zy: zy, w0: w0, w1: w1, r0: rhs0, r1: rhs1, r2: rhs2}
		}
	}
}

// scoreHyp scores hypothesis (hx, hy) at every block pixel from the term
// planes and folds it into the pixel's incumbent. first marks the anchor:
// scored against an infinite bound and accepted whatever its ε.
func (k *blockKernel) scoreHyp(hx, hy int, first bool) {
	for j := 0; j < k.bh; j++ {
		for i := 0; i < k.bw; i++ {
			o, p := j*k.gw+i, j*k.bw+i
			b := k.bWalk(o)
			theta := k.fac[p].solveFactored(&b)
			best := &k.best[p]
			bound := best.eps
			if first || k.noEarlyExit {
				bound = math.Inf(1)
			}
			var e float64
			var pruned bool
			if k.opt.Robust {
				buf := k.fillBuf(o)
				theta = robustRefine(buf, theta, k.opt.HuberK)
				e, pruned = residualSumBounded(buf, &theta, bound)
			} else {
				e, pruned = k.residualWalk(o, &theta, bound)
			}
			if first || (!pruned && e < best.eps) {
				*best = incumbent{hx: hx, hy: hy, eps: e, theta: theta}
			}
		}
	}
}

// bWalk accumulates the normal-equation right-hand side of the template
// whose first padded sample is o: per template pixel, in raster order,
// accumulateB's eight adds of the precomputed terms.
func (k *blockKernel) bWalk(o int) la.Vec6 {
	var b0, b1, b2, b3, b4, b5 float64
	for r := 0; r < k.th; r++ {
		row := k.bt[o+r*k.gw:][:k.tw]
		for c := range row {
			t := &row[c]
			b2 += t[btW0zy]
			b3 += t[btW0nzx]
			b4 += t[btW0n]
			b0 += t[btW1nzy]
			b1 += t[btW1zx]
			b5 += t[btW1n]
			b0 += t[btR2]
			b3 += t[btR2]
		}
	}
	return la.Vec6{b0, b1, b2, b3, b4, b5}
}

// residualWalk is residualSumBounded over the template whose first padded
// sample is o, reading the geometry and the rhs planes: rowResiduals'
// arithmetic in the same order, so an unpruned result is bit-identical
// to residualSum's.
func (k *blockKernel) residualWalk(o int, th *la.Vec6, bound float64) (eps float64, pruned bool) {
	t0, t1, t2, t3, t4, t5 := th[0], th[1], th[2], th[3], th[4], th[5]
	// Hoisted out of the loop: l2, and −t0 for −zy·t0 (IEEE rounding is
	// symmetric in sign, so (−zy)·t0 and zy·(−t0) are the same number).
	l2 := t0 + t3
	nt0 := -t0
	for r := 0; r < k.th; r++ {
		row := k.rt[o+r*k.gw:][:k.tw]
		for c := range row {
			q := &row[c]
			l0 := q.zy*t2 - q.zx*t3 - t4
			l1 := q.zy*nt0 + q.zx*t1 - t5
			r0 := q.r0 - l0
			r1 := q.r1 - l1
			r2 := q.r2 - l2
			eps += q.w0*r0*r0 + q.w1*r1*r1 + r2*r2
			if eps >= bound {
				return eps, true
			}
		}
	}
	return eps, false
}

// fillBuf materializes the template whose first padded sample is o into
// the scratch buffer's slots, so the Huber refinement and
// residualSumBounded run unchanged.
func (k *blockKernel) fillBuf(o int) []float64 {
	g := &k.geom
	buf := k.buf
	i := 0
	for r := 0; r < k.th; r++ {
		for c := 0; c < k.tw; c++ {
			q := o + r*k.gw + c
			s := buf[i:][:bufStride]
			s[bufZx], s[bufZy], s[bufScale], s[bufW0], s[bufW1] = g.zx[q], g.zy[q], g.sc[q], g.w0[q], g.w1[q]
			s[bufR0], s[bufR1], s[bufR2] = k.rt[q].r0, k.rt[q].r1, k.rt[q].r2
			i += bufStride
		}
	}
	return buf
}

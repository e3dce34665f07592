package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"

	"sma/internal/la"
	"sma/internal/surface"
)

// Block kernel: the default hypothesis search (docs/PERFORMANCE.md §6)
// and, as a mode, the summed-window search Options.Pyramid selects
// (summed.go, §9). Every b-pass term of the score is a function of the
// template pixel p and the hypothesis h alone — the geometry (zx, zy,
// |n0|, 1/E, 1/G) at p and the after-frame normal at p + h (+ δ(p, h)) —
// never of the tracked pixel whose template covers p. The paper draws the same conclusion for
// the semi-fluid mapping: "it is more efficient to pre-compute the
// template mapping for all pixels". So the kernel runs per fixed block,
// hypothesis-outer:
//
//   - once per block pixel: accumulate A over the template in raster
//     order (the reference's arithmetic), factor it, invert it for the
//     screen, and keep an incumbent;
//   - once per hypothesis, over the padded block (the block plus the
//     template reach): compute rhs0/1/2, and from them the screen's
//     running window sums (screen.go, docs/PERFORMANCE.md §6.3), which
//     give each pixel an O(1) lower bound on the ε the reference would
//     score; pixels whose bound reaches their incumbent's ε are skipped;
//   - once per surviving (pixel, hypothesis): the b-pass is a raster walk
//     adding accumulateB's products w0·zy·rhs0, w0·−zx·rhs0, w0·−rhs0,
//     w1·−zy·rhs1, w1·zx·rhs1, w1·−rhs1 and rhs2 per template pixel —
//     read from a term plane built once for the hypothesis when many
//     pixels survive, formed in place when few do — then SolveFactored6,
//     then the bounded residual walk over the rhs plane against the live
//     incumbent.
//
// Exactness contract: every b-pass value is the very product accumulateB
// forms (its left-associated terms multiply first, so w0·zy·rhs0 is
// (w0·zy)·rhs0), and the walk adds them into each accumulator in the
// reference kernel's template order; no sum is reassociated. The padded
// normal planes hold exactly grid.At's clamped samples. Per pixel the
// hypotheses arrive in the reference order — the anchor first and
// unconditionally (a NaN anchor ε wins), then raster order under
// strict-< — and a screened hypothesis is one whose ε provably could not
// win that comparison, so TrackPrepared output is bit-identical to
// TrackPreparedReference at every block shape and worker count
// (TestBlockKernelMatchesReference, TestScreenOnOffIdentity, the golden
// fixtures).
//
// Summed mode (Options.summed) runs the same sweep with ε_s itself as the
// score: on summed.go's fixed, absolute summedBlock² grid, each pixel's
// screen M is the inverse of its window-summed A (invertSummed) rather
// than of the raster-order A, and screenRow folds every hypothesis's ε_s
// into the incumbent with the same tie rule; no pixel is scored exactly.

// blockSide is the side of the blocks the default search runs on. Any
// side gives the same bits; the side trades the padded block's extra
// plane work, ((s+2·NZT)/s)² per hypothesis, against the scratch that
// grows with s² (one factorization and one incumbent per pixel).
const blockSide = 16

// incumbent is the best hypothesis of a pixel's search so far; the exact
// mode keeps its θ alongside (blockKernel.theta).
type incumbent struct {
	hx, hy int
	eps    float64
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

// trackBlocks runs the block kernel over the exhaustive search window on
// workers goroutines (0 = GOMAXPROCS) that claim blocks off forEachTile's
// work-stealing index; ctx is polled between the hypotheses of a block.
// opt picks the mode: the summed-window search (Options.summed) on its
// fixed summedBlock² grid, or the exact search on blockShape's blocks.
// It returns (nil, ctx.Err()) when cancelled.
func trackBlocks(ctx context.Context, prep *Prepared, sm *SemiMap, opt Options, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var bw, bh int
	if opt.summed() {
		if err := summedFinite(prep); err != nil {
			return nil, err
		}
		bw, bh = minInt(summedBlock, prep.W), minInt(summedBlock, prep.H)
	} else {
		bw, bh = blockShape(opt, prep.W, prep.H, workers)
	}
	g := newTileGrid(prep.W, prep.H, bw, bh)
	if workers > g.tiles() {
		workers = g.tiles()
	}
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	nrm := padNormals(prep)
	order := windowOrder(fullWindow(prep.P))
	done := ctx.Done()
	var screened atomic.Int64
	err := forEachTile(ctx, g, workers, func() func(t tileRect) bool {
		k := newBlockKernel(prep, sm, opt, nrm, order, bw, bh)
		return func(t tileRect) bool {
			if !k.searchTile(done, t) {
				return false
			}
			k.storeBlock(t, res)
			screened.Add(k.screened)
			k.screened = 0
			return true
		}
	})
	if err != nil {
		return nil, err
	}
	res.screened = screened.Load()
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
// the largest block so that blocks never allocate. Summed mode leaves the
// exact search's scratch (rt, bt, fac, theta, scr, sv, surv, buf)
// unallocated.
type blockKernel struct {
	prep   *Prepared
	sm     *SemiMap
	opt    Options
	nrm    *normalPlanes
	order  [][2]int
	rx, ry int
	tw, th int // template width and height
	summed bool

	geom blockGeom
	// rt is the residual walk's plane over the padded block: the geometry
	// (copied from geom per block) and the current hypothesis's right-hand
	// sides. bt is the current hypothesis's b-pass term plane, built only
	// when enough pixels survive the screen.
	rt []rTerm
	bt []bTerm
	// nrow gathers one padded row's displaced after-frame normals when
	// they are not one contiguous run of the padded planes.
	nrow [3][]float32

	fac   []motionFactor // per block pixel
	best  []incumbent    // per block pixel
	theta []la.Vec6      // per block pixel: the incumbent's θ

	// The screen (screen.go): per block pixel M = A⁻¹ packed as
	// invertMotion packs it (the summed mode's from the window-summed A),
	// the rest of its invariant data and the current hypothesis's sums,
	// the running sums that produce them, the block's bound S and
	// per-window-sum error factor, and the pixels that survive the
	// current hypothesis.
	m     [][21]float64
	scr   []screenPixel
	sv    []screenVal
	sl    slider
	smax  float64
	rsErr float64
	surv  []int32
	// screened counts the (pixel, hypothesis) pairs the screen skipped.
	screened int64

	// Summed mode: the hypothesis being folded, whether it is the anchor,
	// and (KeepMotion only) each pixel's incumbent b, from which storeBlock
	// forms θ = M·b.
	hx, hy int
	anchor bool
	bwin   []la.Vec6

	// buf is one (pixel, hypothesis) template in reference.go's slot
	// layout, for the Huber refinement.
	buf []float64

	// noEarlyExit disables the ε early exit (test hook: the argmin must
	// be bit-identical with the exit on and off; Options.noScreen is the
	// screen's).
	noEarlyExit bool

	// Current block geometry.
	gw, gh, bw, bh int
}

func newBlockKernel(prep *Prepared, sm *SemiMap, opt Options, nrm *normalPlanes, order [][2]int, maxBW, maxBH int) *blockKernel {
	p := prep.P
	rx, ry := p.TemplateRX(), p.TemplateRY()
	k := &blockKernel{prep: prep, sm: sm, opt: opt, nrm: nrm, order: order,
		rx: rx, ry: ry, tw: 2*rx + 1, th: 2*ry + 1, summed: opt.summed()}
	gw := maxBW + 2*rx
	n := gw * (maxBH + 2*ry)
	k.geom = newBlockGeom(n)
	for i := range k.nrow {
		k.nrow[i] = make([]float32, gw)
	}
	nb := maxBW * maxBH
	k.best = make([]incumbent, nb)
	k.m = make([][21]float64, nb)
	if k.summed {
		k.sl = newSlider(aPlanes, gw, maxBW, k.tw, k.th)
		if opt.KeepMotion {
			k.bwin = make([]la.Vec6, nb)
		}
		return k
	}
	k.rt = make([]rTerm, n)
	k.bt = make([]bTerm, n)
	k.theta = make([]la.Vec6, nb)
	k.scr = make([]screenPixel, nb)
	k.fac = make([]motionFactor, nb)
	k.sv = make([]screenVal, nb)
	k.surv = make([]int32, nb)
	k.sl = newSlider(hypPlanes, gw, maxBW, k.tw, k.th)
	if opt.Robust {
		k.buf = make([]float64, k.tw*k.th*bufStride)
	}
	return k
}

// searchTile searches every pixel of block t, leaving each pixel's winner
// in k.best (block raster order). It reports false, with the block
// unfinished, when done closes; done is polled between hypotheses.
func (k *blockKernel) searchTile(done <-chan struct{}, t tileRect) bool {
	k.prepareBlock(t)
	for n, h := range k.order {
		select {
		case <-done:
			return false
		default:
		}
		first := n == 0
		if k.summed {
			k.hx, k.hy, k.anchor = h[0], h[1], first
			k.rhsPass(t, h[0], h[1], true)
			continue
		}
		k.rhsPass(t, h[0], h[1], !first && !k.opt.noScreen)
		k.scoreHyp(h[0], h[1], first)
	}
	return true
}

// storeBlock writes block t's winners into res. Under the semi-fluid
// model the reported correspondence is the winning hypothesis plus the
// tracked pixel's own adjustment, h + δ(x, y, h): Fsemi (eq. 9) maps
// every template pixel individually, and the tracked pixel's
// after-motion location is where its own discriminant patch re-matched.
// The summed mode forms a kept winner's θ = M·b here, once per pixel.
func (k *blockKernel) storeBlock(t tileRect, res *Result) {
	for j := 0; j < k.bh; j++ {
		for i := 0; i < k.bw; i++ {
			p := j*k.bw + i
			b := &k.best[p]
			x, y := t.X0+i, t.Y0+j
			hx, hy := b.hx, b.hy
			if k.sm != nil {
				dx, dy := k.sm.Delta(x, y, hx, hy)
				hx += dx
				hy += dy
			}
			var theta la.Vec6
			switch {
			case k.theta != nil:
				theta = k.theta[p]
			case k.bwin != nil:
				theta = summedTheta(&k.m[p], &k.bwin[p])
			}
			res.set(x, y, hx, hy, b.eps, theta)
		}
	}
}

// prepareBlock runs the hypothesis-invariant half of the search for block
// t: the padded block's geometry (copied into rt), then each pixel's
// normal-equation matrix A — accumulated over its template in raster
// order with accumulateA, as the reference does — factored once (with
// the ridge fallback solveMotion applies), and the pixel's screen data.
// The summed mode needs only M, from the window-summed A (invertSummed).
func (k *blockKernel) prepareBlock(t tileRect) {
	k.bw, k.bh = t.X1-t.X0, t.Y1-t.Y0
	k.gw, k.gh = k.bw+2*k.rx, k.bh+2*k.ry
	gw := k.gw
	g := &k.geom
	g.fillPadded(k.prep.G0, t.X0-k.rx, t.Y0-k.ry, gw, k.gh)
	if k.summed {
		k.invertSummed()
		return
	}
	geomOK := true
	for o := range g.zx[:gw*k.gh] {
		zx, zy, w0, w1 := g.zx[o], g.zy[o], g.w0[o], g.w1[o]
		k.rt[o] = rTerm{zx: zx, zy: zy, w0: w0, w1: w1}
		// Every screen bound assumes finite geometry and positive
		// weights (E, G ≥ 1 whenever the fit is finite).
		geomOK = geomOK && zx-zx == 0 && zy-zy == 0 && // finite
			w0 > 0 && w0 <= math.MaxFloat64 && w1 > 0 && w1 <= math.MaxFloat64
	}
	k.rsErr = float64(2*gw*k.th+2*k.gh+8) * unitRoundoff
	n := k.tw * k.th
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
			p := j*k.bw + i
			k.fac[p].factorMotion(&a)
			prepareScreen(&k.scr[p], &k.m[p], &a, &k.fac[p], n, geomOK)
		}
	}
}

// rhsPass fills rt's right-hand sides for hypothesis (hx, hy) over the
// padded block of t and, when screen is set, runs the screen (screen.go),
// leaving the pixels it cannot rule out in k.surv; otherwise every pixel
// survives. In summed mode screenRow folds ε_s instead. Template pixel p
// reads the after-frame normal at p + h, displaced by δ(p, h) when p is
// in the image and h has a semi-map entry. A row with no displacement
// whose reach stays inside the padded normals (every hypothesis of the
// ±NZS window does) reads them as one slice; any other row gathers them
// into k.nrow, by index inside the pad and through grid.At's clamp
// beyond it, which yields the same samples.
func (k *blockKernel) rhsPass(t tileRect, hx, hy int, screen bool) {
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
	gw := k.gw
	x0, y0 := t.X0-k.rx, t.Y0-k.ry
	padded := x0+hx-m >= -nrm.padX && x0+gw-1+hx+m < nrm.w+nrm.padX &&
		y0+hy-m >= -nrm.padY && y0+k.gh-1+hy+m < nrm.h+nrm.padY
	g1 := k.prep.G1
	if screen {
		k.sl.reset(hypPlanes, gw)
		k.smax = 0
	}
	for r := 0; r < k.gh; r++ {
		py := y0 + r
		rowSemi := semi && py >= 0 && py < H
		var ni, nj, nk []float32
		if padded && !rowSemi {
			q := (py+hy+nrm.padY)*nrm.stride + x0 + hx + nrm.padX
			ni, nj, nk = nrm.ni[q:][:gw], nrm.nj[q:][:gw], nrm.nk[q:][:gw]
		} else {
			ni, nj, nk = k.nrow[0][:gw], k.nrow[1][:gw], k.nrow[2][:gw]
			for c := range ni {
				px := x0 + c
				qx, qy := px+hx, py+hy
				if rowSemi && px >= 0 && px < W {
					d := (py*W+px)*hyps + hi
					qx += int(sm.DX[d])
					qy += int(sm.DY[d])
				}
				if padded {
					q := (qy+nrm.padY)*nrm.stride + qx + nrm.padX
					ni[c], nj[c], nk[c] = nrm.ni[q], nrm.nj[q], nrm.nk[q]
				} else {
					ni[c], nj[c], nk[c] = g1.Ni.At(qx, qy), g1.Nj.At(qx, qy), g1.Nk.At(qx, qy)
				}
			}
		}
		if screen {
			k.screenRow(r, ni, nj, nk)
			continue
		}
		row := k.rt[r*gw:][:gw]
		sc := k.geom.sc[r*gw:][:gw]
		for c := range row {
			q := &row[c]
			q.r0, q.r1, q.r2 = rhs(sc[c], q.zx, q.zy, ni[c], nj[c], nk[c])
		}
	}
	if k.summed {
		return
	}
	if screen {
		k.screenPrune()
		return
	}
	k.surv = k.surv[:k.bw*k.bh]
	for p := range k.surv {
		k.surv[p] = int32(p)
	}
}

// rhs is accumulateB's right-hand sides r = |n0|·n′ − n0 at a template
// pixel of slopes (zx, zy) and |n0| = sc whose displaced after-frame
// normal is n′ = (ni, nj, nk).
func rhs(sc, zx, zy float64, ni, nj, nk float32) (r0, r1, r2 float64) {
	return sc*float64(ni) + zx, sc*float64(nj) + zy, sc*float64(nk) - 1
}

// buildBTerms fills bt from rt over the padded block: accumulateB's
// products, each formed once for every template covering its pixel.
func (k *blockKernel) buildBTerms() {
	for o, q := range k.rt[:k.gw*k.gh] {
		w0, w1, zx, zy := q.w0, q.w1, q.zx, q.zy
		k.bt[o] = bTerm{w0 * zy * q.r0, w0 * -zx * q.r0, w0 * -q.r0,
			w1 * -zy * q.r1, w1 * zx * q.r1, w1 * -q.r1, q.r2}
	}
}

// scoreHyp scores hypothesis (hx, hy) at every surviving block pixel and
// folds it into the pixel's incumbent. first marks the anchor: scored
// against an infinite bound and accepted whatever its ε.
func (k *blockKernel) scoreHyp(hx, hy int, first bool) {
	// Once the survivors' templates cover more samples than the padded
	// block holds, reading the b-pass term plane (built once) beats
	// forming each product per template: ~25% per block with every pixel
	// surviving, ~7% on the whole 64² Luis search (docs/PERFORMANCE.md
	// §6.1).
	dense := len(k.surv)*k.tw*k.th > k.gw*k.gh
	if dense {
		k.buildBTerms()
	}
	for _, p32 := range k.surv {
		p := int(p32)
		o := (p/k.bw)*k.gw + p%k.bw
		var b la.Vec6
		if dense {
			b = k.bWalk(o)
		} else {
			b = k.bDirect(o)
		}
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
			*best = incumbent{hx: hx, hy: hy, eps: e}
			k.theta[p] = theta
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

// bDirect is bWalk forming accumulateB's products from rt as it goes —
// the same products added in the same order, so the same b.
func (k *blockKernel) bDirect(o int) la.Vec6 {
	var b0, b1, b2, b3, b4, b5 float64
	for r := 0; r < k.th; r++ {
		row := k.rt[o+r*k.gw:][:k.tw]
		for c := range row {
			q := &row[c]
			b2 += q.w0 * q.zy * q.r0
			b3 += q.w0 * -q.zx * q.r0
			b4 += q.w0 * -q.r0
			b0 += q.w1 * -q.zy * q.r1
			b1 += q.w1 * q.zx * q.r1
			b5 += q.w1 * -q.r1
			b0 += q.r2
			b3 += q.r2
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

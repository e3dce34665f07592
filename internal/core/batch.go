package core

import (
	"math"

	"sma/internal/la"
	"sma/internal/surface"
)

// This file is the search kernel's per-hypothesis half, in lanes: one
// scoreHypLanes call scores up to la.BatchLanes hypotheses against the
// cached template invariants of the tracked pixel. Each lane's b-pass
// (bLane) runs over the template row by row with its six right-hand-side
// sums in registers, reading whole rows of the after-frame normals as
// plain slices of the clamp-padded planes (normalPlanes); the factored
// normal-equation matrix is then replayed for all lanes in one
// la.SolveFactored6Lanes call that reads each LU element once per batch.
//
// Bit-exactness contract: within a lane, the b accumulation visits
// template pixels in the reference kernel's order and performs
// accumulateB's operation sequence (the hoisted products are the very
// first multiplications of accumulateB's left-associated terms), the
// padded planes hold exactly the values grid.At's clamp returns, the
// substitution replays SolveFactored6, and the residual sum runs
// residualSumBounded's arithmetic against the live incumbent ε — lanes
// are folded left to right, each seeing the incumbent updated by its
// predecessors, which is precisely the sequential search. The lane width
// therefore changes memory traffic only, never arithmetic, and
// TrackPrepared output is bit-identical to TrackPreparedReference at
// every width (kernel_equiv_test.go, batch_equiv_test.go, the golden
// fixtures).

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
// read-only between their trackers.
type normalPlanes struct {
	padX, padY int
	w, h       int // unpadded grid size
	stride     int // w + 2*padX
	ni, nj, nk []float32
}

// padNormals pads prep's after-frame normals by the search kernel's full
// reach, TemplateR + SearchR + NSS per axis: every hypothesis inside the
// ±NZS window, semi-fluid adjustment included, then reads inside the pad.
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

// tmplPix is one template pixel's hypothesis-invariant cache: the
// geometry the b-pass and the residual sum read, and the four
// coefficient products of accumulateB's left-associated terms
// (w0·zy·rhs0 evaluates as (w0·zy)·rhs0, so hoisting w0·zy is exact).
type tmplPix struct {
	zx, zy, scale, w0, w1    float64
	w0zy, w0nzx, w1nzy, w1zx float64 // w0·zy, w0·−zx, w1·−zy, w1·zx
}

// scoreHypLanes scores the hypotheses (lhx[l], lhy[l]) against the cached
// template invariants and folds them into best. preparePixel(x, y) must
// have run for the same pixel. Lanes are folded in slice order with the
// incumbent live between lanes, so acceptance decisions replay the
// sequential search exactly. With anchor set, lane 0 is the search's
// anchor hypothesis: it is scored against an infinite bound and replaces
// best unconditionally, whatever its ε — a NaN anchor ε therefore wins
// the pixel, because no later ε compares below it.
func (t *tracker) scoreHypLanes(x, y int, lhx, lhy []int, anchor bool, best *incumbent) {
	n := len(t.tmpl)
	L := len(lhx)
	var bb la.Vec6Lanes
	for l := 0; l < L; l++ {
		b := t.bLane(x, y, lhx[l], lhy[l], t.laneRHS[l*n:(l+1)*n])
		for i := range b {
			bb[i][l] = b[i]
		}
	}

	thetas := t.mf.solveFactoredLanes(&bb, L)

	// Fold lanes into the incumbent in order. The bound each lane prunes
	// against is the incumbent AFTER its predecessors — the sequential
	// search's bound exactly — so pruned/accepted decisions, the winning
	// (hx, hy, ε, θ) and all tie-breaks are independent of the lane
	// width.
	for l := 0; l < L; l++ {
		theta := thetas.Vec(l)
		rl := t.laneRHS[l*n : (l+1)*n]
		var buf []float64
		if t.opt.Robust {
			buf = t.fillLaneBuf(rl)
			theta = robustRefine(buf, theta, t.opt.HuberK)
		}
		first := anchor && l == 0
		bound := best.eps
		if first || t.noEarlyExit {
			bound = math.Inf(1)
		}
		var e float64
		var pruned bool
		if t.opt.Robust {
			e, pruned = residualSumBounded(buf, &theta, bound)
		} else {
			e, pruned = residualSumBoundedLane(t.tmpl, rl, &theta, bound)
		}
		if first || (!pruned && e < best.eps) {
			*best = incumbent{hx: lhx[l], hy: lhy[l], eps: e, theta: theta}
		}
	}
}

// bLane is one lane's b-pass: it accumulates the normal-equation
// right-hand side of hypothesis (hx, hy) at tracked pixel (x, y), in
// the reference kernel's template order and with accumulateB's
// operation sequence, and stores the lane's per-pixel right-hand sides
// in rl for the residual sum. The six sums live in registers across the
// template; each template row reads one row slice of the padded normal
// planes, displaced per pixel by the semi-fluid δ of the in-image
// columns when the lane has a semi-map entry. A lane whose reach leaves
// the pad (only hypotheses outside the ±NZS window can) takes the
// clamped per-pixel path instead.
func (t *tracker) bLane(x, y, hx, hy int, rl [][3]float64) la.Vec6 {
	p := t.prep.P
	rx, ry := p.TemplateRX(), p.TemplateRY()
	tw := 2*rx + 1
	nrm := t.nrm
	sm := t.sm
	semi := sm != nil && hx >= -sm.RX && hx <= sm.RX && hy >= -sm.RY && hy <= sm.RY
	m := 0
	if semi {
		m = sm.NSS
	}
	if x+hx-rx-m < -nrm.padX || x+hx+rx+m >= nrm.w+nrm.padX ||
		y+hy-ry-m < -nrm.padY || y+hy+ry+m >= nrm.h+nrm.padY {
		return t.bLaneClamped(x, y, hx, hy, rl)
	}

	stride := nrm.stride
	ni := nrm.ni
	nj := nrm.nj[:len(ni)]
	nk := nrm.nk[:len(ni)]
	// In-image template columns [jlo, jhi) are the ones with a δ.
	jlo := maxInt(0, rx-x)
	jhi := minInt(tw, t.prep.W-x+rx)
	var smDX, smDY []int8
	var smStride, smOff int
	if semi {
		smDX, smDY = sm.DX, sm.DY
		smStride = sm.hyps()
		smOff = (x-rx+jlo)*smStride + sm.hypIndex(hx, hy)
	}

	var b0, b1, b2, b3, b4, b5 float64
	// o is the padded index of the displaced template row's first pixel.
	o := (y+hy-ry+nrm.padY)*stride + x + hx - rx + nrm.padX
	for k, py := 0, y-ry; py <= y+ry; k, py = k+tw, py+1 {
		tp := t.tmpl[k : k+tw]
		rr := rl[k : k+tw]
		rr = rr[:len(tp)]
		// Both loops below run accumulateB's body; they stay apart
		// because only a row without δ reads plain, check-free slices.
		if !semi || py < 0 || py >= t.prep.H {
			rni, rnj, rnk := ni[o:o+tw], nj[o:o+tw], nk[o:o+tw]
			rni, rnj, rnk = rni[:len(tp)], rnj[:len(tp)], rnk[:len(tp)]
			for j := range tp {
				c := &tp[j]
				rhs0 := c.scale*float64(rni[j]) + c.zx
				rhs1 := c.scale*float64(rnj[j]) + c.zy
				rhs2 := c.scale*float64(rnk[j]) - 1
				b2 += c.w0zy * rhs0
				b3 += c.w0nzx * rhs0
				b4 += c.w0 * -rhs0
				b0 += c.w1nzy * rhs1
				b1 += c.w1zx * rhs1
				b5 += c.w1 * -rhs1
				b0 += rhs2
				b3 += rhs2
				rr[j] = [3]float64{rhs0, rhs1, rhs2}
			}
		} else {
			// The δ row: column j of the in-image span reads its δ at
			// di, stepping one pixel (smStride entries) per column.
			d0 := py*sm.W*smStride + smOff
			dxr := smDX[d0 : d0+(jhi-jlo-1)*smStride+1]
			dyr := smDY[d0 : d0+len(dxr)]
			dyr = dyr[:len(dxr)]
			di := 0
			for j := range tp {
				q := o + j
				if j >= jlo && j < jhi {
					q += int(dxr[di]) + int(dyr[di])*stride
					di += smStride
				}
				c := &tp[j]
				rhs0 := c.scale*float64(ni[q]) + c.zx
				rhs1 := c.scale*float64(nj[q]) + c.zy
				rhs2 := c.scale*float64(nk[q]) - 1
				b2 += c.w0zy * rhs0
				b3 += c.w0nzx * rhs0
				b4 += c.w0 * -rhs0
				b0 += c.w1nzy * rhs1
				b1 += c.w1zx * rhs1
				b5 += c.w1 * -rhs1
				b0 += rhs2
				b3 += rhs2
				rr[j] = [3]float64{rhs0, rhs1, rhs2}
			}
		}
		o += stride
	}
	return la.Vec6{b0, b1, b2, b3, b4, b5}
}

// bLaneClamped is bLane for a lane whose reach leaves the padded planes:
// the reference kernel's per-pixel loop, clamping every normal read
// through NormalAt and fetching δ through Delta.
func (t *tracker) bLaneClamped(x, y, hx, hy int, rl [][3]float64) la.Vec6 {
	p := t.prep.P
	rx, ry := p.TemplateRX(), p.TemplateRY()
	g1 := t.prep.G1
	var b la.Vec6
	k := 0
	for dy := -ry; dy <= ry; dy++ {
		for dx := -rx; dx <= rx; dx++ {
			px, py := x+dx, y+dy
			qx, qy := px+hx, py+hy
			if t.sm != nil && px >= 0 && px < t.prep.W && py >= 0 && py < t.prep.H {
				ddx, ddy := t.sm.Delta(px, py, hx, hy)
				qx += ddx
				qy += ddy
			}
			ni, nj, nk := g1.NormalAt(qx, qy)
			c := &t.tmpl[k]
			rhs0 := c.scale*ni + c.zx
			rhs1 := c.scale*nj + c.zy
			rhs2 := c.scale*nk - 1
			accumulateB(&b, c.zx, c.zy, rhs0, rhs1, rhs2, c.w0, c.w1)
			rl[k] = [3]float64{rhs0, rhs1, rhs2}
			k++
		}
	}
	return b
}

// fillLaneBuf materializes one lane's template (the cached invariants
// plus the lane's right-hand sides rl) into the scratch buffer's slots,
// so the Huber refinement and residualSumBounded run unchanged on the
// lane path.
func (t *tracker) fillLaneBuf(rl [][3]float64) []float64 {
	buf := t.buf[:len(t.tmpl)*bufStride]
	for i := range t.tmpl {
		c := &t.tmpl[i]
		s := buf[i*bufStride:][:bufStride]
		s[bufZx], s[bufZy], s[bufScale], s[bufW0], s[bufW1] = c.zx, c.zy, c.scale, c.w0, c.w1
		s[bufR0], s[bufR1], s[bufR2] = rl[i][0], rl[i][1], rl[i][2]
	}
	return buf
}

// residualSumBoundedLane is residualSumBounded over the template cache tp
// and one lane's right-hand sides rl: identical per-pixel arithmetic
// (rowResiduals') and accumulation order, so an unpruned result is
// bit-identical to residualSum's.
func residualSumBoundedLane(tp []tmplPix, rl [][3]float64, th *la.Vec6, bound float64) (eps float64, pruned bool) {
	t0, t1, t2, t3, t4, t5 := th[0], th[1], th[2], th[3], th[4], th[5]
	rl = rl[:len(tp)]
	for i := range tp {
		c := &tp[i]
		l0 := c.zy*t2 - c.zx*t3 - t4
		l1 := -c.zy*t0 + c.zx*t1 - t5
		l2 := t0 + t3
		r0 := rl[i][0] - l0
		r1 := rl[i][1] - l1
		r2 := rl[i][2] - l2
		eps += c.w0*r0*r0 + c.w1*r1*r1 + r2*r2
		if eps >= bound {
			return eps, true
		}
	}
	return eps, false
}

// solveFactoredLanes solves the first n lanes of bs against the stored
// factorization(s), mirroring solveFactored's branch structure: every
// lane is bit-identical to a scalar solveFactored of that lane's b.
func (mf *motionFactor) solveFactoredLanes(bs *la.Vec6Lanes, n int) la.Vec6Lanes {
	if mf.ok {
		return la.SolveFactored6Lanes(&mf.fac, bs, n)
	}
	if mf.ridgeOK {
		return la.SolveFactored6Lanes(&mf.ridge, bs, n)
	}
	return la.Vec6Lanes{}
}

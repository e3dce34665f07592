package core

import (
	"math"

	"sma/internal/la"
)

// This file is the search kernel's per-hypothesis half, in lanes: one
// scoreHypLanes call scores up to la.BatchLanes hypotheses in a single
// pass over the cached template invariants. The hypothesis-invariant
// slots of the scratch buffer (zx, zy, |n0|, 1/E, 1/G) are loaded ONCE
// per template pixel and feed every lane; the right-hand sides
// accumulate into structure-of-arrays lane stripes
// ([6][la.BatchLanes]float64, lane index contiguous) so the inner lane
// loops are stride-1; and the factored normal-equation matrix is replayed
// for all lanes in one la.SolveFactored6Lanes call that reads each LU
// element once per batch.
//
// Bit-exactness contract: within a lane, the b accumulation visits
// template pixels in the reference kernel's order and performs
// accumulateB's operation sequence, the substitution replays
// SolveFactored6, and the residual sum runs residualSumBounded's
// arithmetic against the live incumbent ε — lanes are folded left to
// right, each seeing the incumbent updated by its predecessors, which is
// precisely the sequential search. The lane width therefore changes
// memory traffic only, never arithmetic, and TrackPrepared output is
// bit-identical to TrackPreparedReference at every width
// (kernel_equiv_test.go, batch_equiv_test.go, the golden fixtures).

// laneRHSStride is the per-template-pixel stride of the lane rhs scratch:
// three residual rows, each a contiguous la.BatchLanes stripe.
const laneRHSStride = 3 * la.BatchLanes

// incumbent is the best hypothesis of a pixel's search so far.
type incumbent struct {
	hx, hy int
	eps    float64
	theta  la.Vec6
}

// scoreHypLanes scores the hypotheses (lhx[l], lhy[l]) in one pass over
// the cached template invariants and folds them into best.
// preparePixel(x, y) must have run for the same pixel. Lanes are folded
// in slice order with the incumbent live between lanes, so acceptance
// decisions replay the sequential search exactly. With anchor set, lane 0
// is the search's anchor hypothesis: it is scored against an infinite
// bound and replaces best unconditionally, whatever its ε — a NaN anchor
// ε therefore wins the pixel, because no later ε compares below it.
func (t *tracker) scoreHypLanes(x, y int, lhx, lhy []int, anchor bool, best *incumbent) {
	p := t.prep.P
	rx := p.TemplateRX()
	ry := p.TemplateRY()
	n := (2*rx + 1) * (2*ry + 1)
	buf := t.buf[:n*bufStride]
	rhs := t.laneRHS[:n*laneRHSStride]
	L := len(lhx)

	g1 := t.prep.G1
	gw, gh := g1.Ni.W, g1.Ni.H
	niD, njD, nkD := g1.Ni.Data, g1.Nj.Data, g1.Nk.Data

	// Per-lane hoists: the semi-fluid hypothesis index and the interior
	// test depend only on the lane's (hx, hy). smIdx[l] < 0 encodes "no
	// semi-map lookup for this lane" (sm nil or offset outside the
	// precomputed window, matching Delta's δ = 0). A lane is interior when
	// the template window (for the semi-map lookup) and the displaced
	// window plus the largest possible δ (for the after-normal lookup)
	// both stay inside their grids: every access is then in bounds, so
	// Grid.At's border clamping is a no-op and direct Data indexing
	// returns bit-identical values.
	var smIdx [la.BatchLanes]int
	var interior [la.BatchLanes]bool
	var smDX, smDY []int8
	var smW, smStride int
	if t.sm != nil {
		smDX, smDY = t.sm.DX, t.sm.DY
		smW = t.sm.W
		smStride = t.sm.hyps()
	}
	tmplIn := x-rx >= 0 && x+rx < t.prep.W && y-ry >= 0 && y+ry < t.prep.H
	for l := 0; l < L; l++ {
		hx, hy := lhx[l], lhy[l]
		smIdx[l] = -1
		margin := 0
		if t.sm != nil && hx >= -t.sm.RX && hx <= t.sm.RX && hy >= -t.sm.RY && hy <= t.sm.RY {
			smIdx[l] = t.sm.hypIndex(hx, hy)
			margin = t.sm.NSS
		}
		interior[l] = tmplIn &&
			x+hx-rx-margin >= 0 && x+hx+rx+margin < gw &&
			y+hy-ry-margin >= 0 && y+hy+ry+margin < gh
	}

	// Joint b-pass: one sweep over the template; the invariant slots are
	// loaded once per pixel and feed every lane. Within a lane the
	// accumulation order over pixels — and accumulateB's operation order
	// within a pixel — is exactly the reference kernel's.
	var bb la.Vec6Lanes
	k := 0
	r := 0
	for dy := -ry; dy <= ry; dy++ {
		py := y + dy
		for dx := -rx; dx <= rx; dx++ {
			px := x + dx
			pxIn := px >= 0 && px < t.prep.W && py >= 0 && py < t.prep.H
			zx := buf[k+bufZx]
			zy := buf[k+bufZy]
			scale := buf[k+bufScale]
			w0 := buf[k+bufW0]
			w1 := buf[k+bufW1]
			for l := 0; l < L; l++ {
				qx := px + lhx[l]
				qy := py + lhy[l]
				if smIdx[l] >= 0 && pxIn {
					i := (py*smW+px)*smStride + smIdx[l]
					qx += int(smDX[i])
					qy += int(smDY[i])
				}
				var ni, nj, nk float64
				if interior[l] {
					qi := qy*gw + qx
					ni = float64(niD[qi])
					nj = float64(njD[qi])
					nk = float64(nkD[qi])
				} else {
					ni, nj, nk = g1.NormalAt(qx, qy)
				}
				rhs0 := scale*ni + zx
				rhs1 := scale*nj + zy
				rhs2 := scale*nk - 1
				// accumulateB's operation order, one lane stripe per row.
				bb[2][l] += w0 * zy * rhs0
				bb[3][l] += w0 * -zx * rhs0
				bb[4][l] += w0 * -rhs0
				bb[0][l] += w1 * -zy * rhs1
				bb[1][l] += w1 * zx * rhs1
				bb[5][l] += w1 * -rhs1
				bb[0][l] += rhs2
				bb[3][l] += rhs2
				rhs[r+l] = rhs0
				rhs[r+la.BatchLanes+l] = rhs1
				rhs[r+2*la.BatchLanes+l] = rhs2
			}
			k += bufStride
			r += laneRHSStride
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
		if t.opt.Robust {
			t.copyLaneRHS(buf, rhs, l)
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
			e, pruned = residualSumBoundedLane(buf, rhs, l, &theta, bound)
		}
		if first || (!pruned && e < best.eps) {
			*best = incumbent{hx: lhx[l], hy: lhy[l], eps: e, theta: theta}
		}
	}
}

// copyLaneRHS materializes lane l's right-hand sides into the scratch
// buffer's rhs slots, so the Huber refinement (which reads bufR0..bufR2)
// runs unchanged on the lane path.
func (t *tracker) copyLaneRHS(buf, rhs []float64, l int) {
	r := 0
	for k := 0; k < len(buf); k += bufStride {
		buf[k+bufR0] = rhs[r+l]
		buf[k+bufR1] = rhs[r+la.BatchLanes+l]
		buf[k+bufR2] = rhs[r+2*la.BatchLanes+l]
		r += laneRHSStride
	}
}

// rowResidualsLane is rowResiduals with the right-hand sides read from
// lane l of the structure-of-arrays scratch instead of the buffer's rhs
// slots. Same arithmetic, different loads.
func rowResidualsLane(buf, rhs []float64, k, r, l int, th *la.Vec6) (r0w, r1w, r2w float64) {
	zx := buf[k+bufZx]
	zy := buf[k+bufZy]
	l0 := zy*th[2] - zx*th[3] - th[4]
	l1 := -zy*th[0] + zx*th[1] - th[5]
	l2 := th[0] + th[3]
	r0 := rhs[r+l] - l0
	r1 := rhs[r+la.BatchLanes+l] - l1
	r2 := rhs[r+2*la.BatchLanes+l] - l2
	return buf[k+bufW0] * r0 * r0, buf[k+bufW1] * r1 * r1, r2 * r2
}

// residualSumBoundedLane is residualSumBounded reading lane l's rhs from
// the structure-of-arrays scratch: identical accumulation order, so an
// unpruned result is bit-identical to residualSum's.
func residualSumBoundedLane(buf, rhs []float64, l int, th *la.Vec6, bound float64) (eps float64, pruned bool) {
	r := 0
	for k := 0; k < len(buf); k += bufStride {
		r0, r1, r2 := rowResidualsLane(buf, rhs, k, r, l, th)
		eps += r0 + r1 + r2
		if eps >= bound {
			return eps, true
		}
		r += laneRHSStride
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

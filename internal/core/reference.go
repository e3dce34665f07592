package core

import (
	"math"

	"sma/internal/la"
)

// This file retains the naive per-hypothesis kernel — the direct
// transcription of the paper's cost model, which re-accumulates and
// re-eliminates the full 6×6 normal equations for every hypothesis — as
// the oracle for the block kernel (block.go). The two are bit-identical
// by construction (the block kernel only hoists hypothesis-invariant
// arithmetic, computes each template pixel's b-pass terms once for every
// template covering it, and stops residual sums that provably cannot
// win); the conformance tests assert it at every block shape and worker
// count, and the benchmark trajectory
// (eval.TrackThroughputExperiment → BENCH_track.json) measures the
// speedup against this path.
//
// The reference stays deliberately scalar: one pixel and one hypothesis
// per pass, no shared terms, no early exit, and its own search loop.

// scoreReference evaluates ε(x, y; x+hx, y+hy) by rebuilding and
// eliminating the full normal equations for this single hypothesis.
func (t *tracker) scoreReference(x, y, hx, hy int) (eps float64, theta la.Vec6) {
	p := t.prep.P
	rx := p.TemplateRX()
	ry := p.TemplateRY()
	n := (2*rx + 1) * (2*ry + 1)
	buf := t.buf[:n*bufStride]

	g0 := t.prep.G0
	g1 := t.prep.G1
	var a la.Mat6
	var b la.Vec6
	k := 0
	for dy := -ry; dy <= ry; dy++ {
		for dx := -rx; dx <= rx; dx++ {
			px := x + dx
			py := y + dy
			qx := x + hx + dx
			qy := y + hy + dy
			if t.sm != nil && px >= 0 && px < t.prep.W && py >= 0 && py < t.prep.H {
				ddx, ddy := t.sm.Delta(px, py, hx, hy)
				qx += ddx
				qy += ddy
			}
			zx := float64(g0.Zx.At(px, py))
			zy := float64(g0.Zy.At(px, py))
			scale := math.Sqrt(1 + zx*zx + zy*zy)
			ni, nj, nk := g1.NormalAt(qx, qy)
			rhs0 := scale*ni + zx // |n0|·ni′ − (−zx)
			rhs1 := scale*nj + zy
			rhs2 := scale*nk - 1
			w0 := 1 / float64(g0.E.At(px, py))
			w1 := 1 / float64(g0.G.At(px, py))
			accumulateA(&a, zx, zy, w0, w1)
			accumulateB(&b, zx, zy, rhs0, rhs1, rhs2, w0, w1)
			buf[k+bufZx] = zx
			buf[k+bufZy] = zy
			buf[k+bufScale] = scale
			buf[k+bufW0] = w0
			buf[k+bufW1] = w1
			buf[k+bufR0] = rhs0
			buf[k+bufR1] = rhs1
			buf[k+bufR2] = rhs2
			k += bufStride
		}
	}
	symmetrize(&a)
	theta = solveMotion(&a, &b)
	if t.opt.Robust {
		theta = robustRefine(buf, theta, t.opt.HuberK)
	}
	eps = residualSum(buf, &theta)
	return eps, theta
}

// trackPixelReference is the exhaustive per-pixel search on the naive
// kernel: the block kernel's search order and tie-breaking (the zero
// hypothesis accepted first, unconditionally, then raster order under
// strict <), with every hypothesis fully evaluated.
func (t *tracker) trackPixelReference(x, y int) (hx, hy int, eps float64, theta la.Vec6) {
	p := t.prep.P
	srx := p.SearchRX()
	sry := p.SearchRY()
	eps, theta = t.scoreReference(x, y, 0, 0)
	for dy := -sry; dy <= sry; dy++ {
		for dx := -srx; dx <= srx; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			e, th := t.scoreReference(x, y, dx, dy)
			if e < eps {
				eps = e
				hx, hy = dx, dy
				theta = th
			}
		}
	}
	if t.sm != nil {
		dx, dy := t.sm.Delta(x, y, hx, hy)
		hx += dx
		hy += dy
	}
	return hx, hy, eps, theta
}

// TrackPreparedReference runs the hypothesis search with the retained
// naive kernel — TrackPrepared's bit-identical but unhoisted twin. It
// exists for the benchmark trajectory and the optimized-vs-reference
// equivalence tests; production callers should use TrackPrepared.
func TrackPreparedReference(prep *Prepared, sm *SemiMap, opt Options) *Result {
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	t := newTracker(prep, sm, opt)
	for y := 0; y < prep.H; y++ {
		for x := 0; x < prep.W; x++ {
			hx, hy, eps, theta := t.trackPixelReference(x, y)
			res.set(x, y, hx, hy, eps, theta)
		}
	}
	return res
}

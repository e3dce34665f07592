package core

import (
	"math"

	"sma/internal/la"
)

// TrackSummedReference is the summed-window search's oracle: a serial
// transcription of the same arithmetic with none of the kernel's
// machinery. Per block, it builds every plane as a full table from
// clamped grid reads (grid.At, NormalAt) rather than padded row slices,
// runs the block-restart running sums over whole tables rather than
// through a ring, and keeps the per-pixel incumbent with the reference
// search loop's shape (anchor scored first, then raster order, strict <).
// The search Options.Pyramid selects is byte-identical to it at every
// worker count; the oracle tests and eval.PyramidExperiment check that.
func TrackSummedReference(prep *Prepared, opt Options) (*Result, error) {
	p := prep.P
	// The oracle runs the summed-window search whatever opt.Pyramid says.
	if err := (PyramidOptions{Levels: 2}).Check(p); err != nil {
		return nil, err
	}
	if err := summedFinite(prep); err != nil {
		return nil, err
	}
	rx, ry := p.TemplateRX(), p.TemplateRY()
	sx, sy := p.SearchRX(), p.SearchRY()
	tw, th := 2*rx+1, 2*ry+1
	n := float64(tw * th)
	g0, g1 := prep.G0, prep.G1
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	blocks := newTileGrid(prep.W, prep.H, summedBlock, summedBlock)
	for bi := 0; bi < blocks.tiles(); bi++ {
		t := blocks.tile(bi)
		bw, bh := t.X1-t.X0, t.Y1-t.Y0
		gw, gh := bw+2*rx, bh+2*ry
		// geom returns the template-pixel geometry at padded-block sample
		// (c, r) and its image coordinates.
		geom := func(c, r int) (px, py int, zx, zy, sc, w0, w1 float64) {
			px, py = t.X0-rx+c, t.Y0-ry+r
			zx = float64(g0.Zx.At(px, py))
			zy = float64(g0.Zy.At(px, py))
			sc = math.Sqrt(1 + zx*zx + zy*zy)
			w0 = 1 / float64(g0.E.At(px, py))
			w1 = 1 / float64(g0.G.At(px, py))
			return px, py, zx, zy, sc, w0, w1
		}

		var aSum [aPlanes][]float64
		for k := range aSum {
			aSum[k] = make([]float64, gw*gh)
		}
		for r := 0; r < gh; r++ {
			for c := 0; c < gw; c++ {
				_, _, zx, zy, _, w0, w1 := geom(c, r)
				for k, x := range aPlaneValues(zx, zy, w0, w1) {
					aSum[k][r*gw+c] = x
				}
			}
		}
		for k := range aSum {
			aSum[k] = windowSums(aSum[k], gw, gh, tw, th)
		}
		m := make([][21]float64, bw*bh)
		for o := range m {
			var s [aPlanes]float64
			for k := range s {
				s[k] = aSum[k][o]
			}
			a := summedA(&s, n)
			m[o] = invertMotion(&a)
		}

		eps := make([]float64, bw*bh)
		win := make([][2]int, bw*bh)
		bwin := make([]la.Vec6, bw*bh)
		score := func(hx, hy int, anchor bool) {
			var sum [hypPlanes][]float64
			for k := range sum {
				sum[k] = make([]float64, gw*gh)
			}
			for r := 0; r < gh; r++ {
				for c := 0; c < gw; c++ {
					px, py, zx, zy, sc, w0, w1 := geom(c, r)
					ni, nj, nk := g1.NormalAt(px+hx, py+hy)
					for k, x := range hypPlaneValues(zx, zy, sc, w0, w1, ni, nj, nk) {
						sum[k][r*gw+c] = x
					}
				}
			}
			for k := range sum {
				sum[k] = windowSums(sum[k], gw, gh, tw, th)
			}
			for o := range eps {
				b := la.Vec6{sum[hpB0][o], sum[hpB1][o], sum[hpB2][o], sum[hpB3][o], -sum[hpU0][o], -sum[hpU1][o]}
				e := summedEps(&m[o], &b, sum[hpC][o])
				if anchor || e < eps[o] {
					eps[o], win[o], bwin[o] = e, [2]int{hx, hy}, b
				}
			}
		}
		score(0, 0, true)
		for dy := -sy; dy <= sy; dy++ {
			for dx := -sx; dx <= sx; dx++ {
				if dx != 0 || dy != 0 {
					score(dx, dy, false)
				}
			}
		}
		for o := range eps {
			var theta la.Vec6
			if opt.KeepMotion {
				theta = summedTheta(&m[o], &bwin[o])
			}
			res.set(t.X0+o%bw, t.Y0+o/bw, win[o][0], win[o][1], eps[o], theta)
		}
	}
	return res, nil
}

// hypPlaneValues are one template pixel's seven per-hypothesis plane
// samples, in slider order, given its geometry and the after-frame
// normal at its displaced position: accumulateB's right-hand sides
// r0…r2 folded into b's components, and C's three weighted squares.
func hypPlaneValues(zx, zy, sc, w0, w1, ni, nj, nk float64) [hypPlanes]float64 {
	r0 := sc*ni + zx
	r1 := sc*nj + zy
	r2 := sc*nk - 1
	u0 := w0 * r0
	u1 := w1 * r1
	return [hypPlanes]float64{
		hpB0: r2 - zy*u1,
		hpB1: zx * u1,
		hpB2: zy * u0,
		hpB3: r2 - zx*u0,
		hpU0: u0,
		hpU1: u1,
		hpC:  u0*r0 + u1*r1 + r2*r2,
	}
}

// windowSums returns the tw×th window sums of the gw×gh table v with the
// block-restart running-sum recurrences: along each row, a sum that
// starts at zero adds each sample and, once tw samples are in, emits and
// then drops the oldest; the same again down each column of row sums.
func windowSums(v []float64, gw, gh, tw, th int) []float64 {
	bw, bh := gw-tw+1, gh-th+1
	rows := make([]float64, gh*bw)
	for r := 0; r < gh; r++ {
		var run float64
		for c := 0; c < gw; c++ {
			run += v[r*gw+c]
			if i := c - tw + 1; i >= 0 {
				rows[r*bw+i] = run
				run -= v[r*gw+i]
			}
		}
	}
	out := make([]float64, bh*bw)
	for i := 0; i < bw; i++ {
		var run float64
		for r := 0; r < gh; r++ {
			run += rows[r*bw+i]
			if j := r - th + 1; j >= 0 {
				out[j*bw+i] = run
				run -= rows[j*bw+i]
			}
		}
	}
	return out
}

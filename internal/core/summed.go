package core

import (
	"fmt"
	"math"

	"sma/internal/grid"
	"sma/internal/la"
)

// Summed-window exhaustive search (docs/PERFORMANCE.md §9), the search
// Options.Pyramid selects: a mode of the block kernel (block.go). This
// file holds what is its own — the grid and the window-summed M
// (invertSummed) — and the running sums and quadratic forms it shares
// with the exact mode's screen (screen.go), which also folds ε_s into
// the incumbents in this mode.
//
// Every per-template-pixel term of the score depends only on the template
// pixel p and the hypothesis h, never on the tracked pixel: the geometry
// (zx, zy, |n0|, 1/E, 1/G) at p and the after-frame normal at p+h. The
// normal-equation matrix A(x) is therefore a window sum over the template
// T(x) of twelve hypothesis-invariant planes (plus constants), and b(x, h)
// and C(x, h) = Σ w0·r0² + w1·r1² + r2² are window sums of seven
// per-(p, h) planes. With θ = A⁻¹b the minimized residual expands to
//
//	ε = C − 2θᵀb + θᵀAθ = C − bᵀA⁻¹b,
//
// so once M = A⁻¹ is known per pixel, scoring one hypothesis at one pixel
// costs seven window sums and one quadratic form. Running sums make each
// window sum O(1) instead of O(template area): a horizontal running sum
// along each padded plane row, then a vertical one down the columns of
// row sums, which a ring keeps for the last 2·NZT+1 rows. The exact
// mode's screen computes the same ε_s per (pixel, hypothesis) as a lower
// bound; this mode takes its argmin as the search's answer.
//
// Exactness contract: the running sums reassociate the block kernel's
// raster-order template sums, so this search is not bit-identical to
// TrackPreparedReference (argmin agreement is tested instead). It is
// bit-identical to its own oracle, TrackSummedReference, which builds
// every plane as a full table and runs the same recurrences. The image is
// cut into fixed, absolute-aligned summedBlock² blocks and every running
// sum restarts at its block's origin, so the output is a function of the
// inputs alone: identical at every worker count and on every serving path.

// summedBlock is the side of the blocks the summed-window search runs on.
// It is a constant, never derived from the worker count, because the
// block grid fixes the running sums' arithmetic order. A worker's scratch
// grows with the block's area (each pixel stores its 21-entry M), the
// plane work per pixel with the padded block's area over the block's;
// 32 keeps the scratch near 0.55 MB at GOES-9 sizes for about 10% more
// time than 64, whose scratch raised a serving process's peak RSS by a
// fifth.
const summedBlock = 32

// The per-hypothesis planes, in slider order: b0…b3, then u0 = w0·r0 and
// u1 = w1·r1 (b4 = −Σu0 and b5 = −Σu1; negation is exact), then C.
const (
	hpB0 = iota
	hpB1
	hpB2
	hpB3
	hpU0
	hpU1
	hpC
	hypPlanes
)

// aPlanes is the number of non-constant upper-triangle entries of A.
const aPlanes = 12

// summedFinite rejects geometry a running sum would smear. A running sum
// carries one NaN or Inf sample into every later window of its block, so
// it would corrupt pixels whose template never touches the sample (and
// the oracle would replay the corruption). Every pixel lies in the reach
// of the block containing it, so checking the whole image checks every
// block's reach. Finite float32 inputs with E, G ≠ 0 keep every plane
// value finite: the largest, w0·r0², stays below 1e200.
func summedFinite(prep *Prepared) error {
	g0, g1 := prep.G0, prep.G1
	for _, f := range []struct {
		name    string
		g       *grid.Grid
		nonzero bool
	}{
		{"zx", g0.Zx, false}, {"zy", g0.Zy, false}, {"E", g0.E, true}, {"G", g0.G, true},
		{"ni", g1.Ni, false}, {"nj", g1.Nj, false}, {"nk", g1.Nk, false},
	} {
		for i, v := range f.g.Data {
			if x := float64(v); math.IsNaN(x) || math.IsInf(x, 0) || (f.nonzero && x == 0) {
				return fmt.Errorf("core: summed-window search needs finite geometry: %s = %v at (%d, %d)",
					f.name, v, i%f.g.W, i/f.g.W)
			}
		}
	}
	return nil
}

// aPlaneValues are one template pixel's contributions to A's twelve
// non-constant upper-triangle entries, in summedA's order. Row 2 of L,
// (1, 0, 0, 1, 0, 0), adds only constants, which summedA adds once.
func aPlaneValues(zx, zy, w0, w1 float64) [aPlanes]float64 {
	v0, v1 := w0*zy, w1*zy
	return [aPlanes]float64{
		v0 * zy, -(v0 * zx), -v0, w0 * zx * zx, w0 * zx, w0,
		v1 * zy, -(v1 * zx), v1, w1 * zx * zx, -(w1 * zx), w1,
	}
}

// summedA assembles A from the window sums of the twelve planes and the
// template pixel count n (row 2's constant contributions).
func summedA(s *[aPlanes]float64, n float64) la.Mat6 {
	var a la.Mat6
	a[2][2], a[2][3], a[2][4], a[3][3], a[3][4], a[4][4] = s[0], s[1], s[2], s[3]+n, s[4], s[5]
	a[0][0], a[0][1], a[0][5], a[1][1], a[1][5], a[5][5] = s[6]+n, s[7], s[8], s[9], s[10], s[11]
	a[0][3] = n
	symmetrize(&a)
	return a
}

// invertMotion returns M = A⁻¹ packed by packInverse. A matrix neither
// solve accepts gives M = 0: θ = 0 and ε = C, as solveFactored's zero
// solution gives.
func invertMotion(a *la.Mat6) [21]float64 {
	var mf motionFactor
	mf.factorMotion(a)
	cols := mf.inverse()
	return packInverse(&cols)
}

// inverse returns the columns of A⁻¹: column j is solveFactored of the
// unit vector e_j, so the ridge fallback carries over.
func (mf *motionFactor) inverse() (cols [6]la.Vec6) {
	for j := range cols {
		var e la.Vec6
		e[j] = 1
		cols[j] = mf.solveFactored(&e)
	}
	return cols
}

// packInverse packs the inverse's upper triangle in row-major order,
// off-diagonal entries doubled — the coefficients of the quadratic form
// bᵀMb.
func packInverse(cols *[6]la.Vec6) (m [21]float64) {
	k := 0
	for i := 0; i < 6; i++ {
		m[k] = cols[i][i]
		k++
		for j := i + 1; j < 6; j++ {
			m[k] = 2 * cols[j][i]
			k++
		}
	}
	return m
}

// summedEps is ε = C − bᵀMb, clamped at 0: ε is a sum of squares, so a
// negative value is rounding in the subtraction.
func summedEps(m *[21]float64, b *la.Vec6, c float64) float64 {
	b0, b1, b2, b3, b4, b5 := b[0], b[1], b[2], b[3], b[4], b[5]
	q := b0*(m[0]*b0+m[1]*b1+m[2]*b2+m[3]*b3+m[4]*b4+m[5]*b5) +
		b1*(m[6]*b1+m[7]*b2+m[8]*b3+m[9]*b4+m[10]*b5) +
		b2*(m[11]*b2+m[12]*b3+m[13]*b4+m[14]*b5) +
		b3*(m[15]*b3+m[16]*b4+m[17]*b5) +
		b4*(m[18]*b4+m[19]*b5) +
		b5*(m[20]*b5)
	e := c - q
	if e < 0 {
		return 0
	}
	return e
}

// summedTheta is the winner's motion parameters θ = M·b.
func summedTheta(m *[21]float64, b *la.Vec6) (th la.Vec6) {
	k := 0
	for i := 0; i < 6; i++ {
		th[i] += m[k] * b[i]
		k++
		for j := i + 1; j < 6; j++ {
			h := m[k] / 2 // undo invertMotion's doubling (exact)
			th[i] += h * b[j]
			th[j] += h * b[i]
			k++
		}
	}
	return th
}

// slider streams padded rows of n planes through block-restart running
// sums. Each slide takes one padded row of every plane (in: n rows of gw
// samples) into the sums; once 2·ry+1 rows are in, sum holds one output
// row of complete window sums (n rows of bw values) after every slide.
// Both running sums start from zero at the block's first padded column
// and row, add the entering sample, and then, once the window is full,
// subtract the leaving one — the order TrackSummedReference replays.
type slider struct {
	n, gw, bw int
	tw, th    int       // window width and height
	in        []float64 // n × gw: the padded row being slid in
	ring      []float64 // th slots × n × bw: the last th rows of horizontal sums
	sum       []float64 // n × bw: the vertical running sums
	r         int       // rows slid in since reset
}

func newSlider(maxN, maxGW, maxBW, tw, th int) slider {
	return slider{tw: tw, th: th,
		in:   make([]float64, maxN*maxGW),
		ring: make([]float64, th*maxN*maxBW),
		sum:  make([]float64, maxN*maxBW)}
}

// reset starts a block pass over n planes with padded rows of gw samples.
func (s *slider) reset(n, gw int) {
	s.n, s.gw, s.bw, s.r = n, gw, gw-s.tw+1, 0
	clear(s.sum[:n*s.bw])
}

// slide moves the row in s.in into the sums and reports whether s.sum now
// holds a complete output row, block row s.r − th (after the increment).
// The ring slot row r overwrites holds row r − th, whose horizontal sums
// are leaving the vertical window, so they are subtracted first.
func (s *slider) slide() bool {
	n, gw, bw, tw := s.n, s.gw, s.bw, s.tw
	slot := s.ring[(s.r%s.th)*n*bw:][:n*bw]
	full := s.r >= s.th
	for p := 0; p < n; p++ {
		in := s.in[p*gw:][:gw]
		h := slot[p*bw:][:bw]
		col := s.sum[p*bw:][:bw]
		var run float64
		for _, v := range in[:tw-1] {
			run += v
		}
		enter := in[tw-1:][:len(h)]
		leave := in[:len(h)]
		col = col[:len(h)]
		if full {
			for i := range h {
				run += enter[i]
				col[i] = col[i] - h[i] + run
				h[i] = run
				run -= leave[i]
			}
		} else {
			for i := range h {
				run += enter[i]
				col[i] += run
				h[i] = run
				run -= leave[i]
			}
		}
	}
	s.r++
	return s.r >= s.th
}

// invertSummed is the summed mode's per-block half: it slides A's twelve
// planes over the padded block and stores each pixel's M = A⁻¹ of the
// window-summed A in its screen data.
func (k *blockKernel) invertSummed() {
	s := &k.sl
	gw := k.gw
	s.reset(aPlanes, gw)
	bw := s.bw
	n := float64(k.tw * k.th)
	g := &k.geom
	for r := 0; r < k.gh; r++ {
		for c := 0; c < gw; c++ {
			o := r*gw + c
			v := aPlaneValues(g.zx[o], g.zy[o], g.w0[o], g.w1[o])
			for p, x := range v {
				s.in[p*gw+c] = x
			}
		}
		if !s.slide() {
			continue
		}
		scr := k.scr[(s.r-s.th)*bw:][:bw]
		for i := range scr {
			var sums [aPlanes]float64
			for p := range sums {
				sums[p] = s.sum[p*bw+i]
			}
			a := summedA(&sums, n)
			scr[i].m = invertMotion(&a)
		}
	}
}

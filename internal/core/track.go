package core

import (
	"math"

	"sma/internal/la"
)

// Options controls a tracking run.
type Options struct {
	// KeepMotion retains the six fitted motion parameters per pixel in
	// Result.Motion.
	KeepMotion bool
	// Robust enables the robust-estimation extension (paper §6 future
	// work): one Huber re-weighted refinement of the motion-parameter
	// solve per hypothesis.
	Robust bool
	// HuberK is the Huber threshold as a multiple of the RMS residual
	// (default 1.5 when Robust is set).
	HuberK float64
	// HostWorkers splits TrackMasPar's functional per-layer PE sweep
	// across goroutines on the host (0 or 1 = serial). Results are
	// independent of the worker count.
	HostWorkers int
	// Pyramid selects the summed-window exhaustive search, the block
	// kernel's summed mode (summed.go), on TrackPreparedParallelCtx and
	// the entry points built on it; with Robust set, or through
	// TrackPrepared and TrackMasPar, the exact search runs. The zero
	// value keeps the exact search — bit-exact against the reference —
	// like every other default. Continuous model only
	// (PyramidOptions.Check).
	Pyramid PyramidOptions

	// blockW/blockH fix the default search's block shape (0 = the
	// default, see blockShape) and noScreen turns off the block kernel's
	// lower-bound screen (screen.go). Neither changes a bit of the
	// output; only the in-package equivalence tests set them.
	blockW, blockH int
	noScreen       bool
}

// tracker scores correspondence hypotheses for single pixels.
//
// Reconstruction of eqs. (3)–(5): with surface slopes (zx, zy) at a
// template pixel, the unnormalized normal is n0 = (−zx, −zy, 1) and, to
// first order in the affine parameters θ = (ai, bi, aj, bj, ak, bk) of
// eq. (6), the deformed normal is N(θ) = n0 + L·θ with
//
//	L = ⎡ 0   0   zy  −zx  −1   0 ⎤
//	    ⎢−zy  zx   0   0    0  −1 ⎥
//	    ⎣ 1   0    0   1    0   0 ⎦
//
// The residual against the observed after-motion unit normal n′ is
// r(θ) = |n0|·n′ − N(θ); ε1 and ε2 are its first two components weighted
// by the first-fundamental-form coefficients (1/E, 1/G; the third
// component has unit weight). Minimizing Σ w·r² over θ is linear least
// squares — "another system of linear equations ... solved using
// Gaussian-elimination" — and the minimized sum is the hypothesis error ε.
//
// Cost structure of the search: L (and hence the normal-equation matrix A)
// depends only on the template pixels of the tracked pixel, not on the
// hypothesis offset — only the right-hand side b does, through the
// after-motion normals at q = p + h (+ δ). The default search (block.go)
// therefore factors A once per tracked pixel and builds b from term
// planes shared by every template covering a pixel. tracker is the
// retained naive kernel that re-derives everything per hypothesis
// (reference.go); the block kernel is bit-identical to it.
type tracker struct {
	prep *Prepared
	sm   *SemiMap
	opt  Options

	// buf holds one hypothesis's full template (bufStride values per
	// pixel), sized once at construction.
	buf []float64
}

// buf slot layout: the template geometry, then one hypothesis's
// right-hand sides.
const (
	bufZx    = 0 // surface slope ∂z/∂x at the template pixel
	bufZy    = 1 // surface slope ∂z/∂y
	bufScale = 2 // |n0| = √(1 + zx² + zy²)
	bufW0    = 3 // 1/E residual weight
	bufW1    = 4 // 1/G residual weight
	bufR0    = 5 // rhs of residual row 0
	bufR1    = 6 // rhs of residual row 1
	bufR2    = 7 // rhs of residual row 2

	bufStride = 8
)

// newTracker builds a reference-kernel tracker with its scratch buffer
// pre-sized for the template window.
func newTracker(prep *Prepared, sm *SemiMap, opt Options) *tracker {
	p := prep.P
	n := (2*p.TemplateRX() + 1) * (2*p.TemplateRY() + 1)
	return &tracker{prep: prep, sm: sm, opt: opt, buf: make([]float64, n*bufStride)}
}

// accumulateA adds one template pixel's contribution to the
// normal-equation matrix, exploiting the sparsity of L (rows touch
// parameters {2,3,4}, {0,1,5} and {0,3} only). Only the upper triangle of
// A is maintained; symmetrize completes it after the loop. A depends only
// on template-pixel geometry, never on the hypothesis.
func accumulateA(a *la.Mat6, zx, zy, w0, w1 float64) {
	// Row 0: (0, 0, zy, −zx, −1, 0), weight w0.
	a[2][2] += w0 * zy * zy
	a[2][3] += w0 * zy * -zx
	a[2][4] += w0 * zy * -1
	a[3][3] += w0 * zx * zx
	a[3][4] += w0 * zx // (−zx)(−1)
	a[4][4] += w0
	// Row 1: (−zy, zx, 0, 0, 0, −1), weight w1.
	a[0][0] += w1 * zy * zy
	a[0][1] += w1 * -zy * zx
	a[0][5] += w1 * zy // (−zy)(−1)
	a[1][1] += w1 * zx * zx
	a[1][5] += w1 * -zx
	a[5][5] += w1
	// Row 2: (1, 0, 0, 1, 0, 0), weight 1.
	a[0][0]++
	a[0][3]++
	a[3][3]++
}

// accumulateB adds one template pixel's contribution to the
// normal-equation right-hand side — the hypothesis-dependent half of the
// accumulation.
func accumulateB(b *la.Vec6, zx, zy, rhs0, rhs1, rhs2, w0, w1 float64) {
	// Row 0: (0, 0, zy, −zx, −1, 0), weight w0.
	b[2] += w0 * zy * rhs0
	b[3] += w0 * -zx * rhs0
	b[4] += w0 * -rhs0
	// Row 1: (−zy, zx, 0, 0, 0, −1), weight w1.
	b[0] += w1 * -zy * rhs1
	b[1] += w1 * zx * rhs1
	b[5] += w1 * -rhs1
	// Row 2: (1, 0, 0, 1, 0, 0), weight 1.
	b[0] += rhs2
	b[3] += rhs2
}

// symmetrize mirrors the maintained upper triangle into the lower one.
func symmetrize(a *la.Mat6) {
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			a[j][i] = a[i][j]
		}
	}
}

// rowResiduals returns the three weighted residual terms of one buffered
// template pixel under parameters θ.
func rowResiduals(buf []float64, k int, th *la.Vec6) (r0w, r1w, r2w float64) {
	zx := buf[k+bufZx]
	zy := buf[k+bufZy]
	l0 := zy*th[2] - zx*th[3] - th[4]
	l1 := -zy*th[0] + zx*th[1] - th[5]
	l2 := th[0] + th[3]
	r0 := buf[k+bufR0] - l0
	r1 := buf[k+bufR1] - l1
	r2 := buf[k+bufR2] - l2
	return buf[k+bufW0] * r0 * r0, buf[k+bufW1] * r1 * r1, r2 * r2
}

// residualSum evaluates ε = Σ w·(rhs − L·θ)² over the buffered template.
func residualSum(buf []float64, th *la.Vec6) float64 {
	var eps float64
	for k := 0; k < len(buf); k += bufStride {
		r0, r1, r2 := rowResiduals(buf, k, th)
		eps += r0 + r1 + r2
	}
	return eps
}

// residualSumBounded is residualSum with an exact early exit: every term
// is a non-negative weighted square, so the moment the running prefix
// reaches bound the full sum is provably ≥ bound and the hypothesis
// cannot win the strict ε < bound comparison. The prefix accumulates in
// the same order as residualSum, so an unpruned result is bit-identical
// to the full sum.
func residualSumBounded(buf []float64, th *la.Vec6, bound float64) (eps float64, pruned bool) {
	for k := 0; k < len(buf); k += bufStride {
		r0, r1, r2 := rowResiduals(buf, k, th)
		eps += r0 + r1 + r2
		if eps >= bound {
			return eps, true
		}
	}
	return eps, false
}

// robustRefine performs one Huber re-weighted least-squares step on the
// buffered observations (paper §6's robust-estimation future work).
func robustRefine(buf []float64, theta la.Vec6, huberK float64) la.Vec6 {
	k := huberK
	if k <= 0 {
		k = 1.5
	}
	var sum float64
	n := 0
	for i := 0; i < len(buf); i += bufStride {
		r0, r1, r2 := rowResiduals(buf, i, &theta)
		sum += r0 + r1 + r2
		n += 3
	}
	// A near-zero residual sum means the plain fit already explains the
	// data to numerical precision; reweighting by ratios of rounding noise
	// would only destabilize it.
	if n == 0 || sum/float64(n) < 1e-12 {
		return theta
	}
	thresh2 := k * k * sum / float64(n) // (k·RMS)² threshold on weighted r²
	var a la.Mat6
	var b la.Vec6
	for i := 0; i < len(buf); i += bufStride {
		zx := buf[i+bufZx]
		zy := buf[i+bufZy]
		w0 := buf[i+bufW0]
		w1 := buf[i+bufW1]
		r0, r1, r2 := rowResiduals(buf, i, &theta)
		if r0 > thresh2 {
			w0 *= math.Sqrt(thresh2 / r0)
		}
		if r1 > thresh2 {
			w1 *= math.Sqrt(thresh2 / r1)
		}
		w2 := 1.0
		if r2 > thresh2 {
			w2 = math.Sqrt(thresh2 / r2)
		}
		rows := [3]la.Vec6{
			{0, 0, zy, -zx, -1, 0},
			{-zy, zx, 0, 0, 0, -1},
			{1, 0, 0, 1, 0, 0},
		}
		rhs := [3]float64{buf[i+bufR0], buf[i+bufR1], buf[i+bufR2]}
		ws := [3]float64{w0, w1, w2}
		for c := 0; c < 3; c++ {
			la.AccumulateNormal(&a, &b, &rows[c], rhs[c], ws[c])
		}
	}
	return solveMotion(&a, &b)
}

// solveMotion solves the accumulated normal equations, falling back to a
// ridge-regularized solve (then θ = 0) when degenerate geometry — e.g. a
// perfectly flat featureless patch — leaves the system singular. The
// Huber refinement uses it directly (its reweighted matrix varies per
// hypothesis); the search loop uses the factored equivalent motionFactor.
func solveMotion(a *la.Mat6, b *la.Vec6) la.Vec6 {
	ac := *a
	bc := *b
	if x, ok := la.Solve6(&ac, &bc); ok {
		return x
	}
	var tr float64
	for i := 0; i < 6; i++ {
		tr += a[i][i]
	}
	ridge := tr/6*1e-8 + 1e-9
	ac = *a
	bc = *b
	for i := 0; i < 6; i++ {
		ac[i][i] += ridge
	}
	if x, ok := la.Solve6(&ac, &bc); ok {
		return x
	}
	return la.Vec6{}
}

// motionFactor is the factored form of solveMotion: factorMotion
// eliminates the normal-equation matrix (and, mirroring solveMotion's
// fallback, its ridge-regularized variant when A is singular) once;
// solveFactored then reproduces solveMotion(A, b) bit-for-bit for any
// right-hand side. Pivot choices depend only on A, so sharing one
// factorization across all hypotheses of a pixel changes no arithmetic.
type motionFactor struct {
	fac     la.Factored6
	ridge   la.Factored6
	ok      bool // fac is valid
	ridgeOK bool // ridge is valid (only consulted when !ok)
}

// factorMotion factors A, falling back to the ridge-regularized matrix
// exactly as solveMotion does. The ridge amount depends only on A's
// trace, so it too is hypothesis-invariant.
func (mf *motionFactor) factorMotion(a *la.Mat6) {
	if mf.fac, mf.ok = la.Factor6(a); mf.ok {
		return
	}
	var tr float64
	for i := 0; i < 6; i++ {
		tr += a[i][i]
	}
	ridge := tr/6*1e-8 + 1e-9
	ac := *a
	for i := 0; i < 6; i++ {
		ac[i][i] += ridge
	}
	mf.ridge, mf.ridgeOK = la.Factor6(&ac)
}

// solveFactored solves for one right-hand side against the stored
// factorization(s). b is clobbered.
func (mf *motionFactor) solveFactored(b *la.Vec6) la.Vec6 {
	if mf.ok {
		return la.SolveFactored6(&mf.fac, b)
	}
	if mf.ridgeOK {
		return la.SolveFactored6(&mf.ridge, b)
	}
	return la.Vec6{}
}

// hypWindow is a rectangular window [lox,hix]×[loy,hiy] of hypothesis
// offsets.
type hypWindow struct{ lox, hix, loy, hiy int }

// fullWindow is the exhaustive ±NZS search window of p.
func fullWindow(p Params) hypWindow {
	return hypWindow{-p.SearchRX(), p.SearchRX(), -p.SearchRY(), p.SearchRY()}
}

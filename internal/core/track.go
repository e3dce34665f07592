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
	// Pyramid selects the summed-window exhaustive search (summed.go)
	// in the parallel driver. The zero value keeps the lane kernel —
	// bit-exact against the reference — like every other default.
	// Continuous model only.
	Pyramid PyramidOptions

	// batchHyps is the lane width of the search kernel (0 = la.BatchLanes,
	// clamped into [1, la.BatchLanes]); tileW/tileH fix the parallel
	// driver's tile shape (0 = chooseTileSize). Both are pure scheduling
	// — every setting is bit-identical — and only the in-package
	// equivalence tests set them.
	batchHyps    int
	tileW, tileH int
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
// after-motion normals at q = p + h (+ δ). The optimized kernel therefore
// runs one A-pass per tracked pixel (preparePixel: cache {zx, zy, |n0|,
// 1/E, 1/G} per template pixel, accumulate A, factor it once) and one
// b-pass per batch of hypotheses (scoreHypLanes: accumulate b, forward/
// back-substitute on the stored factorization, sum residuals with an
// early exit against the best ε so far). Every step replays the reference
// kernel's arithmetic sequence, so results are bit-identical to it (see
// reference.go and the golden conformance suite).
type tracker struct {
	prep *Prepared
	sm   *SemiMap
	opt  Options

	// nrm holds the after-frame normals the b-pass reads, padded by the
	// kernel's reach; it is shared read-only between the trackers of one
	// driver call.
	nrm *normalPlanes

	// tmpl caches the hypothesis-invariant quantities of every template
	// pixel, in the reference kernel's raster order; preparePixel writes
	// it once per tracked pixel.
	tmpl []tmplPix

	// buf holds one hypothesis's full template (bufStride values per
	// pixel) where the reference kernel and the Huber refinement need
	// it. Like every scratch buffer here it is sized once at
	// construction, so the per-pixel kernel never allocates.
	buf []float64

	// mf is the factored normal-equation matrix of the current pixel.
	mf motionFactor

	// nlanes is the number of hypotheses scoreHypLanes scores per pass.
	// Fixed at construction.
	nlanes int

	// laneRHS holds each lane's per-template-pixel right-hand sides:
	// lane l's template occupies [l*len(tmpl), (l+1)*len(tmpl)), so the
	// residual sum reads one lane contiguously.
	laneRHS [][3]float64

	// noEarlyExit disables the ε early exit (test hook: the argmin must be
	// bit-identical with the exit on and off).
	noEarlyExit bool
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

// newTracker builds a tracker over freshly padded after-frame normals.
// Drivers that run several trackers share one padding through
// newTrackerOn.
func newTracker(prep *Prepared, sm *SemiMap, opt Options) *tracker {
	return newTrackerOn(prep, sm, opt, padNormals(prep))
}

// newTrackerOn builds a tracker reading the normal planes nrm, with its
// scratch buffers pre-sized for the template window, keeping the
// per-pixel search allocation-free.
func newTrackerOn(prep *Prepared, sm *SemiMap, opt Options, nrm *normalPlanes) *tracker {
	p := prep.P
	n := (2*p.TemplateRX() + 1) * (2*p.TemplateRY() + 1)
	return &tracker{prep: prep, sm: sm, opt: opt, nrm: nrm,
		tmpl:    make([]tmplPix, n),
		buf:     make([]float64, n*bufStride),
		nlanes:  effectiveBatch(opt),
		laneRHS: make([][3]float64, n*la.BatchLanes)}
}

// effectiveBatch resolves Options.batchHyps to the lane width the
// tracker will run: 0 means the full width, anything below 1 scores one
// hypothesis per pass, anything above la.BatchLanes is clamped to it.
func effectiveBatch(opt Options) int {
	b := opt.batchHyps
	if b == 0 {
		b = la.BatchLanes
	}
	if b < 1 {
		b = 1
	}
	if b > la.BatchLanes {
		b = la.BatchLanes
	}
	return b
}

// preparePixel runs the hypothesis-invariant half of the kernel for
// tracked pixel (x, y): it caches the template-pixel geometry and
// accumulateB's coefficient products in tmpl, accumulates the
// normal-equation matrix A, and factors it (with the same ridge fallback
// solveMotion applies) so every hypothesis of the ensuing search solves
// by substitution only.
func (t *tracker) preparePixel(x, y int) {
	p := t.prep.P
	rx := p.TemplateRX()
	ry := p.TemplateRY()

	g0 := t.prep.G0
	var a la.Mat6
	k := 0
	for dy := -ry; dy <= ry; dy++ {
		for dx := -rx; dx <= rx; dx++ {
			px := x + dx
			py := y + dy
			zx := float64(g0.Zx.At(px, py))
			zy := float64(g0.Zy.At(px, py))
			scale := math.Sqrt(1 + zx*zx + zy*zy)
			w0 := 1 / float64(g0.E.At(px, py))
			w1 := 1 / float64(g0.G.At(px, py))
			accumulateA(&a, zx, zy, w0, w1)
			t.tmpl[k] = tmplPix{zx: zx, zy: zy, scale: scale, w0: w0, w1: w1,
				w0zy: w0 * zy, w0nzx: w0 * -zx, w1nzy: w1 * -zy, w1zx: w1 * zx}
			k++
		}
	}
	symmetrize(&a)
	t.mf.factorMotion(&a)
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

// trackPixel runs the exhaustive hypothesis search for one pixel.
func (t *tracker) trackPixel(x, y int) (hx, hy int, eps float64, theta la.Vec6) {
	return t.searchWindow(x, y, fullWindow(t.prep.P))
}

// searchWindow is the per-pixel hypothesis search — the argmin of ε the
// paper's MP-2 runs in lockstep on every PE — over the window win. The
// lane-kernel drivers search through it: trackPixel and the tiled driver
// for the exhaustive window, ScoreOnce for the single zero hypothesis.
//
// The anchor hypothesis — zero displacement clamped into the window — is
// scored first and accepted unconditionally, even when its ε is NaN; the
// rest of the window follows in raster order under strict-< acceptance,
// so ties break toward the anchor, then scan order. Hypotheses reach
// scoreHypLanes in batches of nlanes, the anchor as lane 0 of the first
// batch; batching changes memory traffic, never the visit order or the
// arithmetic. The hypothesis-invariant work (template geometry, matrix
// accumulation and factorization) runs once per pixel, here.
//
// Under the semi-fluid model the reported correspondence is the winning
// hypothesis plus the tracked pixel's own semi-fluid adjustment,
// h + δ(x, y, h): Fsemi (eq. 9) maps every template pixel individually,
// and the tracked pixel's after-motion location is where its own
// discriminant patch re-matched. (Without this, any hypothesis within
// ±NSS of the truth scores a near-identical ε — the per-pixel freedom
// absorbs the offset — and the argmin would be ambiguous.)
func (t *tracker) searchWindow(x, y int, win hypWindow) (hx, hy int, eps float64, theta la.Vec6) {
	t.preparePixel(x, y)
	ax := clampInt(0, win.lox, win.hix)
	ay := clampInt(0, win.loy, win.hiy)
	var best incumbent
	var lhx, lhy [la.BatchLanes]int
	lhx[0], lhy[0] = ax, ay
	n := 1
	anchor := true
	for dy := win.loy; dy <= win.hiy; dy++ {
		for dx := win.lox; dx <= win.hix; dx++ {
			if dx == ax && dy == ay {
				continue
			}
			if n == t.nlanes {
				t.scoreHypLanes(x, y, lhx[:n], lhy[:n], anchor, &best)
				anchor = false
				n = 0
			}
			lhx[n], lhy[n] = dx, dy
			n++
		}
	}
	t.scoreHypLanes(x, y, lhx[:n], lhy[:n], anchor, &best)
	hx, hy = best.hx, best.hy
	if t.sm != nil {
		dx, dy := t.sm.Delta(x, y, hx, hy)
		hx += dx
		hy += dy
	}
	return hx, hy, best.eps, best.theta
}

package core

import (
	"math"

	"sma/internal/la"
)

// Exact lower-bound screen of the block kernel (docs/PERFORMANCE.md §6.3).
//
// For one (pixel, hypothesis) the reference scores ε = Σ w0·r0′² +
// w1·r1′² + r2′² at the θ its solve returns. Whatever θ is — the plain
// least-squares solution or the Huber refinement — that residual is at
// least the least-squares minimum ε* = C − bᵀA⁻¹b, where C = Σ w0·r0² +
// w1·r1² + r2² and b is the normal-equation right-hand side. C and b are
// window sums of seven per-(template pixel, hypothesis) planes, so
// summed.go's running sums give them in O(1) per pixel; A⁻¹ is the
// inverse of the A prepareBlock already accumulates and factors. The
// screen computes ε_s = C − bᵀMb from those sums and a rounding margin δ
// that covers the running sums, the quadratic form and the reference's own
// residual walk. A hypothesis with ε_s − δ ≥ the pixel's incumbent ε
// cannot win the reference's strict-< comparison, so it is skipped; every
// other one is scored by the exact arithmetic. The anchor is never
// screened, and the comparison is false for a NaN bound or incumbent.
//
// δ (§6.3), with u = 2⁻⁵³, γₖ = k·u/(1−k·u), n template pixels and
// κ = κ₁(A) = ‖A‖₁‖M‖₁:
//
//	e = (2·gw·th + 2·gh + 8)·u·S        (one window sum's error)
//	δ = 2·(e + 2e·√(6‖M‖₁·C) + 6‖M‖₁·e²)
//	  + (6γₙ₊₂·tr(A)·‖M‖₁ + γ₈·κ + screenInvErr·u·κ²      (quadratic form)
//	     + 2γ₃ₙ₊₃ + 6γ₄·√(1 + 36κ) + u)·C                  (residual walk)
//
// where S is the largest tr(A) + C over the block's pixels — the bound on
// every window sum of |plane| the running sums pass through — and the
// quadratic form bᵀMb ≤ C stands in for itself. Pixels whose A takes the
// ridge fallback or has κ above screenMaxCond, and blocks with non-finite
// or non-positive weights, are never screened.

const (
	unitRoundoff = 0x1p-53
	// screenMaxCond caps κ₁(A) for screened pixels: beyond it the
	// inversion term of δ approaches q and the first-order analysis would
	// need higher-order terms. The 64² hurricane scenes stay below 1e4.
	screenMaxCond = 1e5
	// screenInvErr bounds M's inversion error: each partial-pivoting LU
	// solve of a 6×6 system has backward error ‖E‖₁ ≤ γ₁₈·‖|L||U|‖₁ ≤
	// 18u·36·2⁵·‖A‖₁ ≈ 2.1e4·u·‖A‖₁ (growth ≤ 2⁵), doubled for packing M's
	// upper triangle and times √6 for the 1- to 2-norm step (§6.3).
	screenInvErr = 1.2e5
)

// gammaN is the rounding constant γₙ = n·u/(1 − n·u).
func gammaN(n int) float64 {
	nu := float64(n) * unitRoundoff
	return nu / (1 - nu)
}

// screenPixel is one block pixel's hypothesis-invariant screen data.
type screenPixel struct {
	m   [21]float64 // M = A⁻¹ packed as invertMotion packs it
	trA float64     // tr(A): the pixel's window sum of the geometry majorant
	m6  float64     // 6‖M‖₁
	kc  float64     // δ's coefficient on C
	ok  bool        // the pixel may be screened
}

// screenVal is one pixel's screen sums under the current hypothesis: C
// and ε_s = C − bᵀMb.
type screenVal struct{ c, eps float64 }

// prepareScreen fills sp from pixel A's matrix a and factorization mf; n is
// the template pixel count and geomOK whether the block's weights are all
// finite and positive.
func prepareScreen(sp *screenPixel, a *la.Mat6, mf *motionFactor, n int, geomOK bool) {
	var tr float64
	for j := 0; j < 6; j++ {
		tr += a[j][j]
	}
	// trA bounds the running sums through this pixel's window whether or
	// not the pixel itself is screened.
	*sp = screenPixel{trA: tr}
	if !geomOK || !mf.ok {
		return
	}
	cols := mf.inverse()
	var aN, mN float64
	for j := 0; j < 6; j++ {
		var ca, cm float64
		for i := 0; i < 6; i++ {
			ca += math.Abs(a[i][j])
			cm += math.Abs(cols[j][i])
		}
		aN, mN = max(aN, ca), max(mN, cm)
	}
	kappa := aN * mN
	if !(kappa <= screenMaxCond) {
		return
	}
	sp.m = packInverse(&cols)
	sp.m6 = 6 * mN
	sp.kc = 6*gammaN(n+2)*tr*mN + gammaN(8)*kappa + screenInvErr*unitRoundoff*kappa*kappa +
		2*gammaN(3*n+3) + 6*gammaN(4)*math.Sqrt(1+36*kappa) + unitRoundoff
	sp.ok = true
}

// lowerBound is block pixel p's lb = ε_s − δ under the current hypothesis,
// given the block's per-window-sum error e; −Inf when p is not screened.
// A non-finite e or sum gives an infinite or NaN δ, which never prunes.
func (k *blockKernel) lowerBound(p int, e float64) float64 {
	sp, v := &k.scr[p], k.sv[p]
	if !sp.ok {
		return math.Inf(-1)
	}
	c := max(v.c, 0)
	delta := 2*(e+2*e*math.Sqrt(sp.m6*c)+sp.m6*e*e) + sp.kc*c
	return v.eps - delta
}

// screenRow runs the screen on padded row rt. It computes the row's
// right-hand sides (rhs) from |n0| (sc) and the displaced after-frame
// normals, storing them in rt for exact scoring (the summed mode never
// reads them back), and feeds the screen planes — summed.go's hypothesis
// planes b0…b3, u0, u1 and C — through the slider. Once the row
// completes a block row, it stores that row's screen sums and raises the
// block's bound k.smax; max propagates NaN, so a non-finite sample makes
// every δ of the block infinite or NaN (lowerBound). In summed mode it
// folds each ε_s into the pixel's incumbent instead — the anchor
// unconditionally, then strict < — keeping the winner's b when a θ is to
// be stored.
func (k *blockKernel) screenRow(rt []rTerm, sc []float64, ni, nj, nk []float32) {
	s := &k.sl
	gw := len(rt)
	in := s.in[:hypPlanes*gw]
	pb0, pb1, pb2, pb3 := in[hpB0*gw:][:gw], in[hpB1*gw:][:gw], in[hpB2*gw:][:gw], in[hpB3*gw:][:gw]
	pu0, pu1, pc := in[hpU0*gw:][:gw], in[hpU1*gw:][:gw], in[hpC*gw:][:gw]
	sc, ni, nj, nk = sc[:gw], ni[:gw], nj[:gw], nk[:gw]
	keepRHS := !k.summed
	for c := range rt {
		q := &rt[c]
		r0, r1, r2 := rhs(sc[c], q.zx, q.zy, ni[c], nj[c], nk[c])
		if keepRHS {
			q.r0, q.r1, q.r2 = r0, r1, r2
		}
		u0 := q.w0 * r0
		u1 := q.w1 * r1
		pb0[c] = r2 - q.zy*u1
		pb1[c] = q.zx * u1
		pb2[c] = q.zy * u0
		pb3[c] = r2 - q.zx*u0
		pu0[c] = u0
		pu1[c] = u1
		pc[c] = u0*r0 + u1*r1 + r2*r2
	}
	if !s.slide() {
		return
	}
	bw := s.bw
	row := (s.r - s.th) * bw
	sum := s.sum
	b0, b1, b2, b3 := sum[hpB0*bw:][:bw], sum[hpB1*bw:][:bw], sum[hpB2*bw:][:bw], sum[hpB3*bw:][:bw]
	u0, u1, cc := sum[hpU0*bw:][:bw], sum[hpU1*bw:][:bw], sum[hpC*bw:][:bw]
	scr := k.scr[row:][:bw]
	if k.summed {
		best := k.best[row:][:bw]
		hx, hy, anchor := k.hx, k.hy, k.anchor
		for i := range scr {
			b := la.Vec6{b0[i], b1[i], b2[i], b3[i], -u0[i], -u1[i]}
			eps := summedEps(&scr[i].m, &b, cc[i])
			if anchor || eps < best[i].eps {
				best[i].hx, best[i].hy, best[i].eps = hx, hy, eps
				if k.bwin != nil {
					k.bwin[row+i] = b
				}
			}
		}
		return
	}
	smax := k.smax
	for i := range scr {
		b := la.Vec6{b0[i], b1[i], b2[i], b3[i], -u0[i], -u1[i]}
		k.sv[row+i] = screenVal{c: cc[i], eps: summedEps(&scr[i].m, &b, cc[i])}
		smax = max(smax, scr[i].trA+cc[i])
	}
	k.smax = smax
}

// screenPrune lists in k.surv the block pixels the current hypothesis can
// still win at, counting the rest in k.screened.
func (k *blockKernel) screenPrune() {
	surv := k.surv[:k.bw*k.bh]
	n := 0
	e := k.rsErr * k.smax
	for p := range surv {
		// δ ≥ 0, so a pixel with ε_s below its bound survives without it.
		if bound := k.best[p].eps; k.sv[p].eps >= bound && k.lowerBound(p, e) >= bound {
			k.screened++
			continue
		}
		surv[n] = int32(p)
		n++
	}
	k.surv = surv[:n]
}

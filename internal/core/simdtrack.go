package core

import (
	"fmt"
	"math"

	"sma/internal/la"
	"sma/internal/maspar"
)

// TrackSIMDContinuous executes continuous-model SMA tracking as a pure
// SIMD data path on the simulated MasPar: the surfaces are fitted on the
// machine (maspar.SIMDSurfaceFit), the per-pixel geometry fields are
// brought into each PE exclusively through neighborhood gathers over the
// X-net mesh, and the hypothesis search runs per memory layer in lockstep
// using only that gathered data — no access to host-side image state.
//
// This is the deepest-fidelity execution mode: where TrackMasPar charges
// the machine ledger and then computes functionally on host arrays,
// TrackSIMDContinuous moves every operand through the simulated machine.
// Because the mesh is toroidal while the host tracker clamps at image
// borders, results are guaranteed identical to TrackSequential only for
// pixels whose fit+template+search footprint stays inside the image
// (distance > NS + NZT + NZS + NS from the border); the equivalence test
// asserts exact agreement there.
//
//smavet:allow deadexport -- DESIGN.md §7 pure-SIMD tracking data path; EXPERIMENTS.md SIMD-path row
func TrackSIMDContinuous(m *maspar.Machine, pair Pair, p Params, scheme maspar.FetchScheme) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.SemiFluid() {
		return nil, fmt.Errorf("core: TrackSIMDContinuous supports the continuous model only")
	}
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	w, h := pair.Z0.W, pair.Z0.H
	mp, err := maspar.NewHierarchical(m, w, h)
	if err != nil {
		return nil, err
	}

	// Stage 1+2 on the machine: distribute surfaces and fit.
	z0, err := maspar.Distribute(m, mp, pair.Z0)
	if err != nil {
		return nil, err
	}
	z1, err := maspar.Distribute(m, mp, pair.Z1)
	if err != nil {
		return nil, err
	}
	g0, err := maspar.SIMDSurfaceFit(m, z0, p.NS, scheme)
	if err != nil {
		return nil, err
	}
	g1, err := maspar.SIMDSurfaceFit(m, z1, p.NS, scheme)
	if err != nil {
		return nil, err
	}

	// Stage 4 data: gather the before-geometry across the template radius
	// and the after-normals across template+search.
	rT := p.TemplateRX()
	if ry := p.TemplateRY(); ry > rT {
		rT = ry
	}
	rQ := rT + p.SearchRX()
	if r := rT + p.SearchRY(); r > rQ {
		rQ = r
	}
	gather := func(img *maspar.Image, r int) *maspar.Neighborhoods {
		if scheme == maspar.SnakeReadout {
			return maspar.GatherSnake(img, r)
		}
		return maspar.GatherRaster(img, r)
	}
	zxN := gather(g0.Zx, rT)
	zyN := gather(g0.Zy, rT)
	eN := gather(g0.E, rT)
	gN := gather(g0.G, rT)
	niN := gather(g1.Ni, rQ)
	njN := gather(g1.Nj, rQ)
	nkN := gather(g1.Nk, rQ)

	// Lockstep hypothesis search per layer using gathered data only.
	res := newResult(w, h, false)
	nproc := m.Cfg.NProc()
	oc := CountOps(p, 2)
	trx := p.TemplateRX()
	try := p.TemplateRY()
	srx := p.SearchRX()
	sry := p.SearchRY()
	// buf holds the gathered template geometry in reference.go's buffer
	// layout, plus the right-hand sides of the hypothesis being scored,
	// where residualSumBounded reads them.
	buf := make([]float64, (2*trx+1)*(2*try+1)*bufStride)
	for l := 0; l < mp.Layers(); l++ {
		for pe := 0; pe < nproc; pe++ {
			x, y := mp.Invert(pe, l)
			if x >= w || y >= h {
				continue
			}
			var bestE float64
			var bestHX, bestHY int
			// Hypothesis-invariant pass: the gathered before-geometry and
			// the normal-equation matrix depend only on (x, y), so cache
			// the template invariants, accumulate A and factor it once —
			// the same hoisting the block kernel's prepareBlock performs.
			var a la.Mat6
			k := 0
			for dy := -try; dy <= try; dy++ {
				for dx := -trx; dx <= trx; dx++ {
					zx := float64(zxN.At(x, y, dx, dy))
					zy := float64(zyN.At(x, y, dx, dy))
					scale := math.Sqrt(1 + zx*zx + zy*zy)
					w0 := 1 / float64(eN.At(x, y, dx, dy))
					w1 := 1 / float64(gN.At(x, y, dx, dy))
					accumulateA(&a, zx, zy, w0, w1)
					s := buf[k*bufStride:][:bufStride]
					s[bufZx], s[bufZy], s[bufScale], s[bufW0], s[bufW1] = zx, zy, scale, w0, w1
					k++
				}
			}
			symmetrize(&a)
			var mf motionFactor
			mf.factorMotion(&a)
			// Lockstep sweep: each hypothesis is scored from the gathered
			// data alone and folded into the incumbent; with first set it
			// is the zero hypothesis, accepted unconditionally.
			score := func(hx, hy int, first bool) {
				var b la.Vec6
				k := 0
				for dy := -try; dy <= try; dy++ {
					for dx := -trx; dx <= trx; dx++ {
						g := buf[k*bufStride:][:bufStride]
						zx, zy, scale := g[bufZx], g[bufZy], g[bufScale]
						ni := float64(niN.At(x, y, dx+hx, dy+hy))
						nj := float64(njN.At(x, y, dx+hx, dy+hy))
						nk := float64(nkN.At(x, y, dx+hx, dy+hy))
						g[bufR0], g[bufR1], g[bufR2] = scale*ni+zx, scale*nj+zy, scale*nk-1
						accumulateB(&b, zx, zy, g[bufR0], g[bufR1], g[bufR2], g[bufW0], g[bufW1])
						k++
					}
				}
				theta := mf.solveFactored(&b)
				bound := bestE
				if first {
					bound = math.Inf(1)
				}
				if e, pruned := residualSumBounded(buf, &theta, bound); first || (!pruned && e < bestE) {
					bestE = e
					bestHX, bestHY = hx, hy
				}
			}
			score(0, 0, true)
			for hy := -sry; hy <= sry; hy++ {
				for hx := -srx; hx <= srx; hx++ {
					if hx != 0 || hy != 0 {
						score(hx, hy, false)
					}
				}
			}
			res.set(x, y, bestHX, bestHY, bestE, la.Vec6{})
		}
		// SIMD instruction charges for this layer's hypothesis sweep.
		m.ChargeFlops(oc.HypFlops)
		for g := int64(0); g < oc.HypGauss; g++ {
			m.ChargeGauss6()
		}
	}
	return res, nil
}

package flow

import (
	"fmt"

	"sma/internal/grid"
	"sma/internal/maspar"
)

// HornSchunckMasPar runs Horn–Schunck as a genuine SIMD kernel on the
// simulated MasPar MP-2 — the algorithm of the paper's reference [2]
// ("Parallel motion computing on the MasPar MP-2", Branca et al., IPPS
// 1995). Every arithmetic step is a plural instruction issued through the
// ACU and every neighbor access is an X-net shift, so the machine ledger
// records the kernel's true instruction and communication counts.
//
// The image must match the PE array exactly (one pixel per PE); array
// edges are toroidal, as the X-net is, so compare against the host
// implementation on interior pixels.
//
//smavet:allow deadexport -- DESIGN.md §7 SIMD Horn–Schunck kernel
func HornSchunckMasPar(m *maspar.Machine, img1, img2 *grid.Grid, cfg HSConfig) (*grid.VectorField, error) {
	if img1.W != img2.W || img1.H != img2.H {
		return nil, fmt.Errorf("flow: image sizes differ: %dx%d vs %dx%d", img1.W, img1.H, img2.W, img2.H)
	}
	if img1.W != m.Cfg.NXProc || img1.H != m.Cfg.NYProc {
		return nil, fmt.Errorf("flow: image %dx%d must match the %dx%d PE array (one pixel per PE)",
			img1.W, img1.H, m.Cfg.NXProc, m.Cfg.NYProc)
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("flow: need at least one iteration")
	}
	a := img1
	b := img2
	if cfg.PreSmooth > 0 {
		a = img1.GaussianBlur(cfg.PreSmooth)
		b = img2.GaussianBlur(cfg.PreSmooth)
	}
	acu := maspar.NewACU(m)
	load := func(g *grid.Grid) *maspar.Plural {
		p := maspar.NewPlural(m)
		copy(p.V, g.Data) // one pixel per PE: row-major == PE-major
		m.ChargeMem(1)
		return p
	}
	pa := load(a)
	pb := load(b)

	// Derivatives via X-net shifts: ex = (E(a)−W(a)+E(b)−W(b))/4, etc.
	tmp := maspar.NewPlural(m)
	diffAxis := func(src *maspar.Plural, plus, minus maspar.Direction) *maspar.Plural {
		out := maspar.NewPlural(m)
		acu.ShiftInto(out, src, plus)
		acu.ShiftInto(tmp, src, minus)
		acu.Sub(out, out, tmp)
		return out
	}
	ex := diffAxis(pa, maspar.East, maspar.West)
	exb := diffAxis(pb, maspar.East, maspar.West)
	acu.Add(ex, ex, exb)
	acu.MulScalar(ex, ex, 0.25)
	ey := diffAxis(pa, maspar.South, maspar.North)
	eyb := diffAxis(pb, maspar.South, maspar.North)
	acu.Add(ey, ey, eyb)
	acu.MulScalar(ey, ey, 0.25)
	et := maspar.NewPlural(m)
	acu.Sub(et, pb, pa)

	// den = α² + ex² + ey² (loop-invariant).
	den := maspar.NewPlural(m)
	acu.Mul(den, ex, ex)
	acu.Mul(tmp, ey, ey)
	acu.Add(den, den, tmp)
	acu.AddScalar(den, den, float32(cfg.Alpha*cfg.Alpha))

	u := maspar.NewPlural(m)
	v := maspar.NewPlural(m)
	ub := maspar.NewPlural(m)
	vb := maspar.NewPlural(m)
	num := maspar.NewPlural(m)
	avg4 := func(dst, src *maspar.Plural) {
		acu.ShiftInto(dst, src, maspar.West)
		acu.ShiftInto(tmp, src, maspar.East)
		acu.Add(dst, dst, tmp)
		acu.ShiftInto(tmp, src, maspar.North)
		acu.Add(dst, dst, tmp)
		acu.ShiftInto(tmp, src, maspar.South)
		acu.Add(dst, dst, tmp)
		acu.MulScalar(dst, dst, 0.25)
	}
	for it := 0; it < cfg.Iterations; it++ {
		avg4(ub, u)
		avg4(vb, v)
		// num = (ex·ubar + ey·vbar + et) / den
		acu.Mul(num, ex, ub)
		acu.Mul(tmp, ey, vb)
		acu.Add(num, num, tmp)
		acu.Add(num, num, et)
		acu.Div(num, num, den)
		// u = ubar − ex·num ; v = vbar − ey·num
		acu.Mul(tmp, ex, num)
		acu.Sub(u, ub, tmp)
		acu.Mul(tmp, ey, num)
		acu.Sub(v, vb, tmp)
	}

	out := grid.NewVectorField(img1.W, img1.H)
	copy(out.U.Data, u.V)
	copy(out.V.Data, v.V)
	m.ChargeMem(2)
	return out, nil
}

// Package surface implements Step 2 of the paper's motion-analysis pipeline:
// least-squares fitting of a continuous quadratic surface patch centered at
// every pixel of an intensity or height image, and the differential
// quantities the SMA error measures are built from — the unit surface
// normal [ni, nj, nk], the first-fundamental-form coefficients E and G, and
// the second-order intensity-surface discriminant D used by the semi-fluid
// template mapping.
//
// Following the paper, each patch uses a (2Ns+1)×(2Ns+1) neighborhood and
// the fit "leads to solving a 6×6 matrix using the Gaussian-elimination
// method". The matrix is the same at every pixel, so a Fitter eliminates
// it once and replays the elimination on each pixel's right-hand side,
// with the bits of one elimination per pixel.
package surface

import (
	"fmt"
	"math"

	"sma/internal/grid"
	"sma/internal/la"
)

// Patch holds the six coefficients of the local quadratic model
//
//	z(u, v) ≈ C0 + C1·u + C2·v + C3·u² + C4·u·v + C5·v²
//
// where (u, v) are offsets from the patch center pixel.
type Patch struct {
	C [6]float64
}

// Eval evaluates the patch at local offset (u, v).
//
//smavet:allow deadexport -- staged deletion with TestPatchEval (ROADMAP item 9)
func (p *Patch) Eval(u, v float64) float64 {
	return p.C[0] + p.C[1]*u + p.C[2]*v + p.C[3]*u*u + p.C[4]*u*v + p.C[5]*v*v
}

// SlopeX returns ∂z/∂x at the patch center.
func (p *Patch) SlopeX() float64 { return p.C[1] }

// SlopeY returns ∂z/∂y at the patch center.
func (p *Patch) SlopeY() float64 { return p.C[2] }

// Discriminant returns the second-order discriminant 4·C3·C5 − C4², the
// areal-change measure of the local intensity surface that the semi-fluid
// template mapping compares before and after motion (paper eqs. 10–11).
func (p *Patch) Discriminant() float64 { return 4*p.C[3]*p.C[5] - p.C[4]*p.C[4] }

// Fitter fits quadratic patches with a fixed neighborhood radius Ns.
// The design matrix depends only on the window geometry, so its normal
// matrix AᵀA is accumulated and eliminated once, in NewFitter; each
// per-pixel fit replays that elimination on its own right-hand side
// (la.SolveFactored6), which gives the same bits as running the paper's
// 6×6 Gaussian elimination (la.Solve6) at every pixel.
type Fitter struct {
	Ns   int
	rows []la.Vec6 // one design row per window pixel, row-major
	offs []int8    // interleaved (du, dv) per window pixel
	lu   la.Factored6
	ok   bool // AᵀA is nonsingular (always, for Ns >= 1)
}

// NewFitter returns a Fitter for a (2ns+1)×(2ns+1) surface-patch window.
// ns must be at least 1 so the quadratic terms are identifiable; smaller
// radii return an error.
func NewFitter(ns int) (*Fitter, error) {
	if ns < 1 {
		return nil, fmt.Errorf("surface: Ns = %d, need >= 1", ns)
	}
	f := &Fitter{Ns: ns}
	var ata la.Mat6
	for dv := -ns; dv <= ns; dv++ {
		for du := -ns; du <= ns; du++ {
			u := float64(du)
			v := float64(dv)
			row := la.Vec6{1, u, v, u * u, u * v, v * v}
			f.rows = append(f.rows, row)
			f.offs = append(f.offs, int8(du), int8(dv))
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					ata[i][j] += row[i] * row[j]
				}
			}
		}
	}
	f.lu, f.ok = la.Factor6(&ata)
	return f, nil
}

// WindowSize returns the patch window edge length 2·Ns+1.
//
//smavet:allow deadexport -- staged deletion with TestWindowSize (ROADMAP item 9)
func (f *Fitter) WindowSize() int { return 2*f.Ns + 1 }

// Fit fits the quadratic patch centered at pixel (x, y) of g.
// Samples falling outside the image are edge-clamped, matching the
// neighborhood convention used throughout the reproduction.
// ok is false only if the (fixed, well-conditioned) system is singular,
// which cannot happen for ns >= 1; it is retained for interface symmetry.
func (f *Fitter) Fit(g *grid.Grid, x, y int) (Patch, bool) {
	if !f.ok {
		return Patch{}, false
	}
	// Aᵀz in six scalars, each summed over the window in row-major order.
	var b0, b1, b2, b3, b4, b5 float64
	for k, row := range f.rows {
		du := int(f.offs[2*k])
		dv := int(f.offs[2*k+1])
		z := float64(g.At(x+du, y+dv))
		b0 += row[0] * z
		b1 += row[1] * z
		b2 += row[2] * z
		b3 += row[3] * z
		b4 += row[4] * z
		b5 += row[5] * z
	}
	b := la.Vec6{b0, b1, b2, b3, b4, b5}
	return Patch{C: la.SolveFactored6(&f.lu, &b)}, true
}

// Field holds the per-pixel differential geometry of a fitted image:
// unit normal components, first-fundamental-form coefficients and the
// discriminant. All grids share the source image dimensions.
type Field struct {
	Ni, Nj, Nk *grid.Grid // unit surface normal components
	E, G       *grid.Grid // first fundamental form: E = 1+zx², G = 1+zy²
	Zx, Zy     *grid.Grid // patch-center slopes
	D          *grid.Grid // second-order discriminant
}

// FitAll fits a patch at every pixel of g and assembles the geometry field.
// This is the paper's "Surface fit" + "Compute geometric variables" stage:
// one 6×6 solve per pixel.
func (f *Fitter) FitAll(g *grid.Grid) *Field {
	w, h := g.W, g.H
	out := &Field{
		Ni: grid.New(w, h), Nj: grid.New(w, h), Nk: grid.New(w, h),
		E: grid.New(w, h), G: grid.New(w, h),
		Zx: grid.New(w, h), Zy: grid.New(w, h),
		D: grid.New(w, h),
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p, ok := f.Fit(g, x, y)
			if !ok {
				continue
			}
			out.setFrom(x, y, &p)
		}
	}
	return out
}

func (fl *Field) setFrom(x, y int, p *Patch) {
	zx := p.SlopeX()
	zy := p.SlopeY()
	// Unnormalized normal n0 = (−zx, −zy, 1); |n0|² = 1 + zx² + zy² = E+G−1.
	n2 := 1 + zx*zx + zy*zy
	inv := 1 / math.Sqrt(n2)
	i := y*fl.Ni.W + x
	fl.Ni.Data[i] = float32(-zx * inv)
	fl.Nj.Data[i] = float32(-zy * inv)
	fl.Nk.Data[i] = float32(inv)
	fl.E.Data[i] = float32(1 + zx*zx)
	fl.G.Data[i] = float32(1 + zy*zy)
	fl.Zx.Data[i] = float32(zx)
	fl.Zy.Data[i] = float32(zy)
	fl.D.Data[i] = float32(p.Discriminant())
}

// NormalAt returns the unit normal at (x, y) with edge clamping.
func (fl *Field) NormalAt(x, y int) (ni, nj, nk float64) {
	return float64(fl.Ni.At(x, y)), float64(fl.Nj.At(x, y)), float64(fl.Nk.At(x, y))
}

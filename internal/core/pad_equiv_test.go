package core

import (
	"fmt"
	"math"
	"testing"

	"sma/internal/la"
	"sma/internal/synth"
)

// This file pins the block kernel's padded-plane reads to the reference
// kernel's clamped ones where they differ most: on grids so small that
// every template crosses the border, with hypotheses inside, at and
// beyond the padded reach, and with semi-fluid hypotheses at the NSS
// margin.

// refScore is one hypothesis scored by the reference kernel.
type refScore struct {
	eps   float64
	theta la.Vec6
	rhs   [][3]float64
}

// refScores scores every hypothesis of win at (x, y) with the reference
// kernel, keyed by offset.
func refScores(ref *tracker, x, y int, win hypWindow) map[[2]int]refScore {
	out := map[[2]int]refScore{}
	n := len(ref.buf) / bufStride
	for hy := win.loy; hy <= win.hiy; hy++ {
		for hx := win.lox; hx <= win.hix; hx++ {
			eps, th := ref.scoreReference(x, y, hx, hy)
			rhs := make([][3]float64, n)
			for k := range rhs {
				rhs[k] = [3]float64{ref.buf[k*bufStride+bufR0], ref.buf[k*bufStride+bufR1], ref.buf[k*bufStride+bufR2]}
			}
			out[[2]int{hx, hy}] = refScore{eps, th, rhs}
		}
	}
	return out
}

// refSearch is the windowed search over precomputed reference scores: the
// anchor (zero clamped into win) accepted first, then win in raster
// order under strict-< acceptance, then the tracked pixel's own
// semi-fluid δ.
func refSearch(sm *SemiMap, scores map[[2]int]refScore, x, y int, win hypWindow) (hx, hy int, best refScore) {
	hx = clampInt(0, win.lox, win.hix)
	hy = clampInt(0, win.loy, win.hiy)
	ax, ay := hx, hy
	best = scores[[2]int{ax, ay}]
	for dy := win.loy; dy <= win.hiy; dy++ {
		for dx := win.lox; dx <= win.hix; dx++ {
			if s := scores[[2]int{dx, dy}]; (dx != ax || dy != ay) && s.eps < best.eps {
				hx, hy, best = dx, dy, s
			}
		}
	}
	if sm != nil {
		dx, dy := sm.Delta(x, y, hx, hy)
		hx += dx
		hy += dy
	}
	return hx, hy, best
}

// TestKernelPadBorderLanes compares the block kernel, one hypothesis at
// a time and over whole windows, with the reference kernel bit for bit.
// Each hypothesis, scored alone on the 1×1 block of a pixel, is checked
// for its ε, θ and term-plane right-hand sides over every hypothesis
// within the padded reach plus one, at every pixel of 9×7, 1×N, N×1 and
// 3×3 grids, for Fcont, Fsemi and Robust, on kernels reading the padded
// planes and, without Robust, the unpadded ones (where every border
// hypothesis reads through the clamp).
func TestKernelPadBorderLanes(t *testing.T) {
	grids := [][2]int{{9, 7}, {1, 11}, {11, 1}, {3, 3}}
	for _, g := range grids {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/semi=%v/robust=%v", g[0], g[1], semi, robust)
				t.Run(name, func(t *testing.T) {
					p := contParams()
					if semi {
						p = testParams()
					}
					s := synth.Hurricane(g[0], g[1], 19)
					prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					opt := Options{Robust: robust}
					ref := newTracker(prep, sm, opt)
					padded := padNormals(prep)
					planes := []*normalPlanes{padded}
					if !robust {
						// Robust changes only what follows the b-walk, so
						// the all-clamped unpadded planes are checked without it.
						planes = append(planes, padNormalsBy(prep.G1, 0, 0))
					}
					// e reaches one hypothesis beyond the pad on each side.
					// Robust scoring is costly, so there the window leaves
					// the pad along x only.
					e := maxInt(padded.padX, padded.padY) + 1
					beyond := hypWindow{-e, e, -e, e}
					if robust {
						beyond.loy, beyond.hiy = -p.SearchRY(), p.SearchRY()
					}
					for y := 0; y < prep.H; y++ {
						for x := 0; x < prep.W; x++ {
							scores := refScores(ref, x, y, beyond)
							for _, nrm := range planes {
								checkHyps(t, prep, sm, opt, nrm, scores, x, y, beyond)
								for _, win := range []hypWindow{fullWindow(p), beyond} {
									k := newBlockKernel(prep, sm, opt, nrm, windowOrder(win), 1, 1)
									k.searchTile(nil, tileRect{X0: x, Y0: y, X1: x + 1, Y1: y + 1})
									best := winner{k.best[0], k.theta[0]}
									hx, hy := best.hx, best.hy
									if sm != nil {
										dx, dy := sm.Delta(x, y, hx, hy)
										hx += dx
										hy += dy
									}
									rhx, rhy, rs := refSearch(sm, scores, x, y, win)
									if hx != rhx || hy != rhy || !sameF64(best.eps, rs.eps) {
										t.Fatalf("(%d,%d) window %v: (%d,%d) ε=%v, reference (%d,%d) ε=%v",
											x, y, win, hx, hy, best.eps, rhx, rhy, rs.eps)
									}
									for i := range best.theta {
										if !sameF64(best.theta[i], rs.theta[i]) {
											t.Fatalf("(%d,%d) window %v: θ %v, reference %v", x, y, win, best.theta, rs.theta)
										}
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// checkHyps scores every hypothesis of win at (x, y) alone — the anchor
// of a one-hypothesis search on the 1×1 block — and demands the reference
// kernel's ε, θ and, from the term planes, right-hand sides.
func checkHyps(t *testing.T, prep *Prepared, sm *SemiMap, opt Options, nrm *normalPlanes, scores map[[2]int]refScore, x, y int, win hypWindow) {
	t.Helper()
	for hy := win.loy; hy <= win.hiy; hy++ {
		for hx := win.lox; hx <= win.hix; hx++ {
			k := newBlockKernel(prep, sm, opt, nrm, [][2]int{{hx, hy}}, 1, 1)
			k.searchTile(nil, tileRect{X0: x, Y0: y, X1: x + 1, Y1: y + 1})
			best := winner{k.best[0], k.theta[0]}
			want := scores[[2]int{hx, hy}]
			if !sameF64(best.eps, want.eps) {
				t.Fatalf("(%d,%d) h=(%d,%d): ε %v, reference %v", x, y, hx, hy, best.eps, want.eps)
			}
			for i := range want.theta {
				if !sameF64(best.theta[i], want.theta[i]) {
					t.Fatalf("(%d,%d) h=(%d,%d): θ %v, reference %v", x, y, hx, hy, best.theta, want.theta)
				}
			}
			// The 1×1 block's padded block is exactly the template.
			for i, r := range want.rhs {
				got := [3]float64{k.rt[i].r0, k.rt[i].r1, k.rt[i].r2}
				for c := range r {
					if !sameF64(got[c], r[c]) {
						t.Fatalf("(%d,%d) h=(%d,%d): template pixel %d rhs %d = %v, reference %v",
							x, y, hx, hy, i, c, got[c], r[c])
					}
				}
			}
		}
	}
}

// TestKernelPaddedNormalsMatchAt pins the pad to grid.At's clamp: every
// padded sample equals the clamped read of the same coordinates.
func TestKernelPaddedNormalsMatchAt(t *testing.T) {
	s := synth.Hurricane(9, 7, 5)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), testParams())
	if err != nil {
		t.Fatal(err)
	}
	nrm := padNormals(prep)
	g1 := prep.G1
	for qy := -nrm.padY; qy < nrm.h+nrm.padY; qy++ {
		for qx := -nrm.padX; qx < nrm.w+nrm.padX; qx++ {
			i := (qy+nrm.padY)*nrm.stride + qx + nrm.padX
			for c, pair := range [][2]float32{
				{nrm.ni[i], g1.Ni.At(qx, qy)}, {nrm.nj[i], g1.Nj.At(qx, qy)}, {nrm.nk[i], g1.Nk.At(qx, qy)},
			} {
				if math.Float32bits(pair[0]) != math.Float32bits(pair[1]) {
					t.Fatalf("(%d,%d) component %d: padded %v, At %v", qx, qy, c, pair[0], pair[1])
				}
			}
		}
	}
	if len(nrm.ni) != nrm.stride*(nrm.h+2*nrm.padY) {
		t.Fatalf("padded plane holds %d samples, want %d", len(nrm.ni), nrm.stride*(nrm.h+2*nrm.padY))
	}
}

// TestKernelSearchWindowZeroAllocs pins the block search allocation-free
// on a warmed kernel at the serving, Luis and GOES-9 parameters, on a
// corner, an interior and a ragged edge block, with the screen on (which
// must skip some hypotheses there) and off: the padded normals and every
// scratch plane are built with the kernel, never per block.
func TestKernelSearchWindowZeroAllocs(t *testing.T) {
	s := synth.Hurricane(40, 40, 7)
	pair := Monocular(s.Frame(0), s.Frame(1))
	for _, tc := range []struct {
		name string
		p    Params
	}{{"scaled", ScaledParams()}, {"luis", LuisParams()}, {"goes9", GOES9Params()}} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(pair, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			for _, screen := range []bool{true, false} {
				k := newBlockKernel(prep, BuildSemiMap(prep), Options{noScreen: !screen}, padNormals(prep), windowOrder(fullWindow(tc.p)), blockSide, blockSide)
				for _, tile := range []tileRect{{0, 0, 16, 16}, {16, 16, 32, 32}, {32, 0, 40, 16}} {
					k.searchTile(nil, tile)
					if screen && k.screened == 0 {
						t.Fatalf("searchTile(%v) screened nothing", tile)
					}
					if a := testing.AllocsPerRun(3, func() { k.searchTile(nil, tile) }); a != 0 {
						t.Fatalf("searchTile(%v), screen %v, allocates %v times per block", tile, screen, a)
					}
				}
			}
		})
	}
}

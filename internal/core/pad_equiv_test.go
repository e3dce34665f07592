package core

import (
	"fmt"
	"math"
	"testing"

	"sma/internal/la"
	"sma/internal/synth"
)

// This file pins the lane kernel's padded-plane reads to the reference
// kernel's clamped ones where they differ most: on grids so small that
// every lane is a border lane, with hypotheses inside, at and beyond the
// padded reach, and with semi-fluid lanes at the NSS margin.

// sameF64 reports whether a and b have the same bits; any two NaNs match
// (see requireSameBits).
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

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
	n := len(ref.tmpl)
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

// refSearch is searchWindow over precomputed reference scores: the
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

// TestKernelPadBorderLanes compares scoreHypLanes, lane by lane, and
// searchWindow, in full batches, with the reference kernel bit for bit.
// Each lane is checked for its ε, θ and stored right-hand sides over
// every hypothesis within the padded reach plus one, at every pixel of
// 9×7, 1×N, N×1 and 3×3 grids, for Fcont, Fsemi and Robust, on trackers
// reading the padded planes and, without Robust, the unpadded ones
// (where every border lane takes the clamped path).
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
					padded := newTracker(prep, sm, opt)
					trackers := []*tracker{padded}
					if !robust {
						// Robust changes only what follows the b-pass, so
						// the all-clamped unpadded b-pass is checked without it.
						trackers = append(trackers, newTrackerOn(prep, sm, opt, padNormalsBy(prep.G1, 0, 0)))
					}
					// e reaches one hypothesis beyond the pad on each side.
					// Robust scoring is costly, so there the window leaves
					// the pad along x only.
					e := maxInt(padded.nrm.padX, padded.nrm.padY) + 1
					beyond := hypWindow{-e, e, -e, e}
					if robust {
						beyond.loy, beyond.hiy = -p.SearchRY(), p.SearchRY()
					}
					for y := 0; y < prep.H; y++ {
						for x := 0; x < prep.W; x++ {
							scores := refScores(ref, x, y, beyond)
							for _, tr := range trackers {
								checkLanes(t, tr, scores, x, y, beyond)
								for _, win := range []hypWindow{fullWindow(p), beyond} {
									hx, hy, eps, th := tr.searchWindow(x, y, win)
									rhx, rhy, rs := refSearch(sm, scores, x, y, win)
									if hx != rhx || hy != rhy || !sameF64(eps, rs.eps) {
										t.Fatalf("(%d,%d) window %v: (%d,%d) ε=%v, reference (%d,%d) ε=%v",
											x, y, win, hx, hy, eps, rhx, rhy, rs.eps)
									}
									for i := range th {
										if !sameF64(th[i], rs.theta[i]) {
											t.Fatalf("(%d,%d) window %v: θ %v, reference %v", x, y, win, th, rs.theta)
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

// checkLanes scores every hypothesis of win at (x, y) as a lone anchor
// lane and demands the reference kernel's ε, θ and right-hand sides.
func checkLanes(t *testing.T, tr *tracker, scores map[[2]int]refScore, x, y int, win hypWindow) {
	t.Helper()
	tr.preparePixel(x, y)
	for hy := win.loy; hy <= win.hiy; hy++ {
		for hx := win.lox; hx <= win.hix; hx++ {
			var best incumbent
			tr.scoreHypLanes(x, y, []int{hx}, []int{hy}, true, &best)
			want := scores[[2]int{hx, hy}]
			if !sameF64(best.eps, want.eps) {
				t.Fatalf("(%d,%d) h=(%d,%d): ε %v, reference %v", x, y, hx, hy, best.eps, want.eps)
			}
			for i := range want.theta {
				if !sameF64(best.theta[i], want.theta[i]) {
					t.Fatalf("(%d,%d) h=(%d,%d): θ %v, reference %v", x, y, hx, hy, best.theta, want.theta)
				}
			}
			for k, r := range want.rhs {
				for c := range r {
					if !sameF64(tr.laneRHS[k][c], r[c]) {
						t.Fatalf("(%d,%d) h=(%d,%d): template pixel %d rhs %d = %v, reference %v",
							x, y, hx, hy, k, c, tr.laneRHS[k][c], r[c])
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

// TestKernelSearchWindowZeroAllocs pins the per-pixel search allocation-
// free on a warmed tracker at the serving, Luis and GOES-9 parameters:
// the padded planes are built with the tracker, never per pixel.
func TestKernelSearchWindowZeroAllocs(t *testing.T) {
	s := synth.Hurricane(32, 32, 7)
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
			tr := newTracker(prep, BuildSemiMap(prep), Options{})
			full := fullWindow(tc.p)
			for _, xy := range [][2]int{{16, 16}, {0, 0}, {31, 5}} {
				tr.searchWindow(xy[0], xy[1], full)
				if a := testing.AllocsPerRun(5, func() { tr.searchWindow(xy[0], xy[1], full) }); a != 0 {
					t.Fatalf("searchWindow(%d,%d) allocates %v times per call", xy[0], xy[1], a)
				}
			}
		})
	}
}

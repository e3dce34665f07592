package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

// The block kernel's screen (screen.go) is exact only if its bounds — lb₁
// = S₂ − S₁²/n − δ₁ (level 1) and lb = ε_s − δ (level 2) — never exceed
// the ε the reference scores, for any (pixel, hypothesis), not just for
// the winners the output shows, and if every pair level 3 drops as a tie
// scores exactly its incumbent's ε. These tests check the bounds and the
// tie rule themselves and that every level actually eliminates; that the
// output is bit-identical with the screen on and off is the differential
// oracle's (oracle_test.go, TestScreenOnOffIdentity).

// stepFlatPair is a 16² scene whose one block mixes a nearly flat,
// faintly textured left half with a high-contrast step on the right,
// moved one pixel right between the frames: window sums of C span many
// orders of magnitude inside one block, so the flat pixels inherit the
// step's running-sum error.
func stepFlatPair() Pair {
	f0, f1 := grid.New(16, 16), grid.New(16, 16)
	scene := func(x, y float64) float64 {
		v := 0.05 * math.Sin(0.9*x) * math.Cos(0.7*y)
		if x >= 11 {
			v += 2000
		}
		return v
	}
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			f0.Set(x, y, float32(scene(float64(x), float64(y))))
			f1.Set(x, y, float32(scene(float64(x)-1, float64(y))))
		}
	}
	return Monocular(f0, f1)
}

// screenCase is one input of the soundness checks.
type screenCase struct {
	oracleCase
	// ties marks a case whose search must drop ties (level 3).
	ties bool
}

// screenCases are the soundness inputs: the block kernel's cases
// (border-dominated grids, the NaN scene, the flat ridge-path surface,
// rectangular overrides, under both models and both estimators), then
// screenExtras.
func screenCases() []screenCase {
	var cases []screenCase
	for _, c := range rowCases(blockRows...) {
		cases = append(cases, screenCase{c, false})
	}
	return append(cases, screenExtras()...)
}

// screenExtras are the three serving configurations, the step-and-flat
// block, Fsemi whose displaced reads reach the pad's NSS margin, and a
// robust Fsemi scene with ties.
func screenExtras() []screenCase {
	return []screenCase{
		{oracleCase{"scaled-32", func() Pair { return hurricanePair(32, 32, 7) }, ScaledParams(), false}, true},
		{oracleCase{"scaled-20/robust", func() Pair { return hurricanePair(20, 20, 7) }, ScaledParams(), true}, true},
		{oracleCase{"luis-24", func() Pair { return hurricanePair(24, 24, 7) }, LuisParams(), false}, false},
		{oracleCase{"luis-12/robust", func() Pair { return hurricanePair(12, 12, 8) }, LuisParams(), true}, false},
		{oracleCase{"goes9-14", func() Pair { return hurricanePair(14, 14, 7) }, GOES9Params(), false}, false},
		{oracleCase{"step-flat", stepFlatPair, Params{NS: 2, NZS: 2, NZT: 3}, false}, false},
		{oracleCase{"step-flat/semi", stepFlatPair, Params{NS: 2, NZS: 2, NZT: 3, NSS: 1, NST: 2}, false}, false},
		{oracleCase{"nss-margin", func() Pair { return hurricanePair(12, 12, 9) }, Params{NS: 2, NZS: 2, NZT: 2, NSS: 2, NST: 2}, false}, false},
		{oracleCase{"nss-margin/robust", func() Pair { return hurricanePair(12, 10, 10) }, Params{NS: 2, NZS: 2, NZT: 2, NZTX: 3, NSS: 2, NST: 2}, true}, false},
		{oracleCase{"semi-16/robust", func() Pair { return hurricanePair(16, 16, 7) }, ScaledParams(), true}, true},
	}
}

// screenStats summarizes a soundness sweep.
type screenStats struct {
	pairs, bounded int     // (pixel, hypothesis) pairs; those with a finite lb
	cRange         float64 // largest max/min ratio of positive C inside one block and hypothesis
	worst          float64 // largest (ε_s − ε)/δ over bounded pairs (< 1 when sound)
	// Level 1: pairs with a finite lb₁, those among them at pixels level
	// 2 cannot bound (A on the ridge path; κ₁(A) above screenMaxCond),
	// and the largest lb₁/ε.
	l1Bounded, l1Ridge, l1Capped int
	l1Worst                      float64
}

// checkScreenBound computes lb₁ and lb for every (pixel, hypothesis) of
// prep's search, block by block, whatever the kernel would skip, and
// fails the test at the first pair whose lb₁ or lb exceeds the
// reference's ε for that pair.
func checkScreenBound(t *testing.T, prep *Prepared, sm *SemiMap, opt Options) screenStats {
	t.Helper()
	var st screenStats
	bw, bh := minInt(blockSide, prep.W), minInt(blockSide, prep.H)
	g := newTileGrid(prep.W, prep.H, bw, bh)
	k := newBlockKernel(prep, sm, opt, padNormals(prep), windowOrder(fullWindow(prep.P)), bw, bh)
	ref := newTracker(prep, sm, opt)
	for i := 0; i < g.tiles(); i++ {
		tile := g.tile(i)
		k.prepareBlock(tile)
		for _, h := range k.order {
			// Level 1 on every pixel; then level 2 on every pixel too (with
			// k.l1 cleared, screenRow forms every ε_s).
			k.l1Pass(tile, h[0], h[1])
			k.l1 = false
			k.rhsPass(tile, h[0], h[1], true)
			e := k.rsErr * k.smax
			cmin, cmax := math.Inf(1), 0.0
			for p := 0; p < k.bw*k.bh; p++ {
				x, y := tile.X0+p%k.bw, tile.Y0+p/k.bw
				lb, lb1 := k.lowerBound(p, e), k.lb1[p]
				eps, _ := ref.scoreReference(x, y, h[0], h[1])
				st.pairs++
				if lb1 > eps {
					t.Fatalf("(%d,%d) h=(%d,%d): lb₁ %v > reference ε %v", x, y, h[0], h[1], lb1, eps)
				}
				if !math.IsInf(lb1, 0) && !math.IsNaN(lb1) {
					st.l1Bounded++
					switch {
					case !k.fac[p].ok:
						st.l1Ridge++
					case !k.scr[p].ok && k.geomOK:
						st.l1Capped++
					}
					if eps > 0 {
						st.l1Worst = max(st.l1Worst, lb1/eps)
					}
				}
				if lb > eps {
					t.Fatalf("(%d,%d) h=(%d,%d): lb %v > reference ε %v (ε_s %v, C %v, S %v)",
						x, y, h[0], h[1], lb, eps, k.sv[p].eps, k.sv[p].c, k.smax)
				}
				if math.IsInf(lb, 0) || math.IsNaN(lb) {
					continue
				}
				st.bounded++
				if d := k.sv[p].eps - lb; d > 0 {
					st.worst = max(st.worst, (k.sv[p].eps-eps)/d)
				}
				if c := k.sv[p].c; c > 0 {
					cmin, cmax = min(cmin, c), max(cmax, c)
				}
			}
			if cmax > 0 {
				st.cRange = max(st.cRange, cmax/cmin)
			}
		}
	}
	return st
}

// TestScreenBoundSound checks lb₁ ≤ ε and lb ≤ ε for every (pixel,
// hypothesis) of every screen case, and that the bounds are not vacuous
// where the screen should work: level 1 bounds the ridge-path pixels
// level 2 cannot, and neither bounds anything in a block with a NaN
// weight.
func TestScreenBoundSound(t *testing.T) {
	capped := 0
	defer func() {
		if !t.Failed() && capped == 0 {
			t.Error("no case has a κ-capped pixel for level 1 to bound")
		}
	}()
	for _, tc := range screenCases() {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(tc.pair(), tc.p)
			if err != nil {
				t.Fatal(err)
			}
			st := checkScreenBound(t, prep, BuildSemiMap(prep), Options{Robust: tc.robust})
			capped += st.l1Capped
			t.Logf("%d pairs, %d bounded, worst (ε_s−ε)/δ %.3g, C range %.3g; level 1: %d bounded (%d ridge-path, %d κ-capped), worst lb₁/ε %.3g",
				st.pairs, st.bounded, st.worst, st.cRange, st.l1Bounded, st.l1Ridge, st.l1Capped, st.l1Worst)
			switch tc.name {
			case "scaled-32", "luis-24", "goes9-14":
				if st.bounded < st.pairs*9/10 || st.l1Bounded < st.pairs*9/10 {
					t.Fatalf("only %d (level 2) and %d (level 1) of %d pairs bounded", st.bounded, st.l1Bounded, st.pairs)
				}
			case "step-flat":
				if st.cRange < 1e8 || st.bounded == 0 || st.l1Bounded == 0 {
					t.Fatalf("C range %.3g, %d and %d bounded pairs: the case no longer mixes scales", st.cRange, st.bounded, st.l1Bounded)
				}
			case "flat-ridge/semi=false/robust=false":
				if st.bounded != 0 || st.l1Ridge != st.pairs {
					t.Fatalf("%d ridge-path pairs bounded by level 2, %d of %d by level 1", st.bounded, st.l1Ridge, st.pairs)
				}
			}
		})
	}
}

// TestScreenPruneFloor pins how much each level of the screen eliminates
// on the 64² hurricane pair of BenchmarkSearch64, so a level that is
// silently disabled (or a margin grown too loose) fails. The counts are
// exact, and the floors sit a few points under the measured values:
// pairs the bounds skip, 85.5% (Scaled) and 98.0% (Luis) of the
// non-anchor (pixel, hypothesis) pairs; (block, hypothesis) passes level 1
// skips whole, 42.8% of Luis's; pairs level 3 drops as ties, 65.5% of
// those Scaled's bounds leave.
func TestScreenPruneFloor(t *testing.T) {
	s := synth.Hurricane(64, 64, 7)
	pair := Monocular(s.Frame(0), s.Frame(1))
	for _, tc := range []struct {
		name                 string
		p                    Params
		floor, l1Floor, tied float64
	}{{"scaled", ScaledParams(), 0.80, 0, 0.60}, {"luis", LuisParams(), 0.95, 0.40, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(pair, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := TrackPreparedParallelCtx(context.Background(), prep, BuildSemiMap(prep), Options{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			pairs := int64(prep.W*prep.H) * int64(tc.p.Hypotheses()-1)
			rate := float64(res.screened) / float64(pairs)
			t.Logf("screened %d of %d non-anchor pairs (%.1f%%)", res.screened, pairs, 100*rate)
			if rate < tc.floor {
				t.Fatalf("screened %.1f%% of non-anchor pairs, floor %.0f%%", 100*rate, 100*tc.floor)
			}
			g := newTileGrid(prep.W, prep.H, blockSide, blockSide)
			passes := int64(g.tiles()) * int64(tc.p.Hypotheses()-1)
			l1 := float64(res.l1skip) / float64(passes)
			t.Logf("level 1 skipped %d of %d passes (%.1f%%)", res.l1skip, passes, 100*l1)
			if l1 < tc.l1Floor {
				t.Fatalf("level 1 skipped %.1f%% of passes, floor %.0f%%", 100*l1, 100*tc.l1Floor)
			}
			tied := float64(res.tied) / float64(pairs-res.screened)
			t.Logf("level 3 dropped %d of %d bound survivors as ties (%.1f%%)", res.tied, pairs-res.screened, 100*tied)
			if tied < tc.tied {
				t.Fatalf("level 3 dropped %.1f%% of bound survivors, floor %.0f%%", 100*tied, 100*tc.tied)
			}
		})
	}
}

// FuzzScreenBound draws small scenes and parameters — template and search
// radii with per-axis overrides, Fsemi on and off, Robust — and checks the
// screen's bound for every (pixel, hypothesis) and, through the oracle's
// winners with the screen on and off, its invisibility in the output.
func FuzzScreenBound(f *testing.F) {
	// seed, w, h, nzt, nzs, flags (1 semi, 2 robust, 4 NZTX, 8 NZSY, 16 NSS 2)
	f.Add(int64(7), uint8(20), uint8(20), uint8(4), uint8(2), uint8(1))  // Scaled-like
	f.Add(int64(7), uint8(16), uint8(16), uint8(5), uint8(4), uint8(0))  // Luis-like
	f.Add(int64(3), uint8(1), uint8(17), uint8(2), uint8(1), uint8(1))   // 1×N
	f.Add(int64(4), uint8(17), uint8(1), uint8(2), uint8(1), uint8(0))   // N×1
	f.Add(int64(5), uint8(3), uint8(3), uint8(2), uint8(1), uint8(3))    // 3×3, robust
	f.Add(int64(6), uint8(23), uint8(19), uint8(2), uint8(2), uint8(12)) // overrides
	f.Add(int64(9), uint8(12), uint8(12), uint8(2), uint8(2), uint8(17)) // NSS margin
	f.Add(int64(10), uint8(14), uint8(9), uint8(3), uint8(1), uint8(31)) // everything
	f.Fuzz(func(t *testing.T, seed int64, w8, h8, nzt8, nzs8, flags uint8) {
		w, h := int(w8)%24+1, int(h8)%24+1
		p := Params{NS: 2, NZT: int(nzt8)%4 + 1, NZS: int(nzs8)%3 + 1}
		if flags&1 != 0 {
			p.NSS, p.NST = 1, 2
			if flags&16 != 0 {
				p.NSS = 2
			}
		}
		if flags&4 != 0 {
			p.NZTX = p.NZT%3 + 1
		}
		if flags&8 != 0 {
			p.NZSY = p.NZS%2 + 1
		}
		prep, err := Prepare(hurricanePair(w, h, seed), p)
		if err != nil {
			t.Skip(err)
		}
		c := oracleCase{"fuzz", func() Pair { return hurricanePair(w, h, seed) }, p, flags&2 != 0}
		checkScreenBound(t, prep, BuildSemiMap(prep), c.opt(false))
		checkSurfaces(t, newOracle(t, c), winnersSurface, screenOffSurface)
	})
}

// TestScreenTiesExact checks level 3's rule against brute force: on small
// Fsemi searches, for every pixel and every ordered pair of hypotheses
// (h, b), sameReads holds exactly when scoreReference's clamped read
// coordinates agree at every template pixel, and then the reference
// scores h and b bit-identically. The grids put every template both
// inside the image and across its edges.
func TestScreenTiesExact(t *testing.T) {
	semi := func(p Params) Params { p.NSS, p.NST = 1, 2; return p }
	for _, tc := range []struct {
		name string
		pair Pair
		p    Params
	}{
		{"scaled-20", hurricanePair(20, 20, 7), ScaledParams()},
		{"nss-margin", hurricanePair(12, 12, 9), Params{NS: 2, NZS: 2, NZT: 2, NSS: 2, NST: 2}},
		{"1x17", hurricanePair(1, 17, 2), semi(contParams())},
		{"rect-x", hurricanePair(23, 19, 6), semi(Params{NS: 2, NZS: 2, NZT: 2, NZTX: 4, NZSX: 3})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(tc.pair, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			sm := BuildSemiMap(prep)
			k := newBlockKernel(prep, sm, Options{}, padNormals(prep), windowOrder(fullWindow(tc.p)), 1, 1)
			ref := newTracker(prep, sm, Options{})
			W, H := prep.W, prep.H
			reads := func(x, y, hx, hy int) (q [][2]int) {
				for py := y - k.ry; py <= y+k.ry; py++ {
					for px := x - k.rx; px <= x+k.rx; px++ {
						qx, qy := px+hx, py+hy
						if px >= 0 && px < W && py >= 0 && py < H {
							dx, dy := sm.Delta(px, py, hx, hy)
							qx, qy = qx+dx, qy+dy
						}
						q = append(q, [2]int{clampInt(qx, 0, W-1), clampInt(qy, 0, H-1)})
					}
				}
				return q
			}
			ties := 0
			for y := 0; y < H; y++ {
				for x := 0; x < W; x++ {
					tile := tileRect{X0: x, Y0: y, X1: x + 1, Y1: y + 1}
					k.prepareBlock(tile)
					q := make([][][2]int, len(k.order))
					eps := make([]float64, len(k.order))
					for i, h := range k.order {
						q[i] = reads(x, y, h[0], h[1])
						eps[i], _ = ref.scoreReference(x, y, h[0], h[1])
					}
					for i, h := range k.order {
						for j, b := range k.order {
							if i == j {
								continue
							}
							want := slices.Equal(q[i], q[j])
							if got := k.sameReads(x-k.rx, x+k.rx, y, h[0], h[1], b[0], b[1]); got != want {
								t.Fatalf("(%d,%d) h=%v b=%v: sameReads %v, read coordinates equal %v", x, y, h, b, got, want)
							}
							if want {
								ties++
								if !sameF64(eps[i], eps[j]) {
									t.Fatalf("(%d,%d) h=%v b=%v: same reads, ε %v and %v", x, y, h, b, eps[i], eps[j])
								}
							}
						}
					}
				}
			}
			t.Logf("%d tied (pixel, h, b) triples", ties)
			if ties == 0 {
				t.Fatal("no ties: the case no longer exercises level 3")
			}
		})
	}
}

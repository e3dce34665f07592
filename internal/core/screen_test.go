package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

// The block kernel's lower-bound screen (screen.go) is exact only if its
// bound lb = ε_s − δ never exceeds the ε the reference scores, for any
// (pixel, hypothesis) — not just for the winners the output shows. These
// tests check the bound itself, that the output is bit-identical with the
// screen on and off, and that the screen actually prunes.

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
	name   string
	pair   func() Pair
	p      Params
	robust bool
}

// screenCases are the soundness inputs: the differential table's rows
// (border-dominated grids, the NaN scene, the flat ridge-path surface,
// rectangular overrides) under both models and both estimators, the three
// serving configurations, the step-and-flat block, and Fsemi whose
// displaced reads reach the pad's NSS margin.
func screenCases() []screenCase {
	var cases []screenCase
	for _, row := range blockRows {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				p := row.cont
				if semi {
					p.NSS, p.NST = 1, 2
				}
				cases = append(cases, screenCase{fmt.Sprintf("%s/semi=%v/robust=%v", row.name, semi, robust), row.pair, p, robust})
			}
		}
	}
	return append(cases,
		screenCase{"scaled-32", func() Pair { return hurricanePair(32, 32, 7) }, ScaledParams(), false},
		screenCase{"scaled-20/robust", func() Pair { return hurricanePair(20, 20, 7) }, ScaledParams(), true},
		screenCase{"luis-24", func() Pair { return hurricanePair(24, 24, 7) }, LuisParams(), false},
		screenCase{"luis-12/robust", func() Pair { return hurricanePair(12, 12, 8) }, LuisParams(), true},
		screenCase{"goes9-14", func() Pair { return hurricanePair(14, 14, 7) }, GOES9Params(), false},
		screenCase{"step-flat", stepFlatPair, Params{NS: 2, NZS: 2, NZT: 3}, false},
		screenCase{"step-flat/semi", stepFlatPair, Params{NS: 2, NZS: 2, NZT: 3, NSS: 1, NST: 2}, false},
		screenCase{"nss-margin", func() Pair { return hurricanePair(12, 12, 9) }, Params{NS: 2, NZS: 2, NZT: 2, NSS: 2, NST: 2}, false},
		screenCase{"nss-margin/robust", func() Pair { return hurricanePair(12, 10, 10) }, Params{NS: 2, NZS: 2, NZT: 2, NZTX: 3, NSS: 2, NST: 2}, true},
	)
}

// screenStats summarizes a soundness sweep.
type screenStats struct {
	pairs, bounded int     // (pixel, hypothesis) pairs; those with a finite lb
	cRange         float64 // largest max/min ratio of positive C inside one block and hypothesis
	worst          float64 // largest (ε_s − ε)/δ over bounded pairs (< 1 when sound)
}

// checkScreenBound computes lb for every (pixel, hypothesis) of prep's
// search, block by block, and fails the test at the first pair whose lb
// exceeds the reference's ε for that pair.
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
			k.rhsPass(tile, h[0], h[1], true)
			e := k.rsErr * k.smax
			cmin, cmax := math.Inf(1), 0.0
			for p := 0; p < k.bw*k.bh; p++ {
				x, y := tile.X0+p%k.bw, tile.Y0+p/k.bw
				lb := k.lowerBound(p, e)
				eps, _ := ref.scoreReference(x, y, h[0], h[1])
				st.pairs++
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

// TestScreenBoundSound checks lb ≤ ε for every (pixel, hypothesis) of
// every screen case, and that the bound is not vacuous where the screen
// should work.
func TestScreenBoundSound(t *testing.T) {
	for _, tc := range screenCases() {
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(tc.pair(), tc.p)
			if err != nil {
				t.Fatal(err)
			}
			st := checkScreenBound(t, prep, BuildSemiMap(prep), Options{Robust: tc.robust})
			t.Logf("%d pairs, %d bounded, worst (ε_s−ε)/δ %.3g, C range %.3g", st.pairs, st.bounded, st.worst, st.cRange)
			switch tc.name {
			case "scaled-32", "luis-24", "goes9-14":
				if st.bounded < st.pairs*9/10 {
					t.Fatalf("only %d of %d pairs bounded", st.bounded, st.pairs)
				}
			case "step-flat":
				if st.cRange < 1e8 || st.bounded == 0 {
					t.Fatalf("C range %.3g, %d bounded pairs: the case no longer mixes scales", st.cRange, st.bounded)
				}
			case "flat-ridge/semi=false/robust=false":
				if st.bounded != 0 {
					t.Fatalf("%d ridge-path pairs bounded", st.bounded)
				}
			}
		})
	}
}

// TestScreenOnOffIdentity pins the screen invisible: with it on and off
// the search is bit-identical — the stored result on ragged 5×3 blocks at
// 1 and 3 workers, and each pixel's float64 winner on the default blocks.
// Robust runs only on the smaller scenes here (it scores every hypothesis
// with the screen off); TestBlockKernelMatchesReference pins the rest
// against the reference with the screen on.
func TestScreenOnOffIdentity(t *testing.T) {
	for _, tc := range screenCases() {
		if tc.robust && len(tc.pair().I0.Data) > 400 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			prep, err := Prepare(tc.pair(), tc.p)
			if err != nil {
				t.Fatal(err)
			}
			sm := BuildSemiMap(prep)
			requireScreenInvisible(t, prep, sm, Options{Robust: tc.robust})
		})
	}
}

func requireScreenInvisible(t *testing.T, prep *Prepared, sm *SemiMap, opt Options) {
	t.Helper()
	off := opt
	off.noScreen = true
	// The float64 winners, screen and early exit both on vs both off.
	win := fullWindow(prep.P)
	requireSameWinners(t, prep, nil,
		searchAllBlocks(prep, sm, opt, win, blockSide, false),
		searchAllBlocks(prep, sm, off, win, blockSide, true))
	opt.KeepMotion, off.KeepMotion = true, true
	opt.blockW, opt.blockH = 5, 3
	off.blockW, off.blockH = 5, 3
	want, err := TrackPreparedParallelCtx(context.Background(), prep, sm, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.screened != 0 {
		t.Fatalf("noScreen run screened %d pairs", want.screened)
	}
	for _, workers := range []int{1, 3} {
		got, err := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("5x3 blocks, screen on vs off, workers=%d", workers), got, want)
	}
}

// TestScreenPruneFloor pins how much the screen prunes on the 64²
// hurricane pair of BenchmarkSearch64, so a screen that is silently
// disabled (or a δ grown too loose) fails: the count is exact, and the
// floors sit a few points under the measured 85.6% (Scaled) and 98.0%
// (Luis) of the non-anchor (pixel, hypothesis) pairs.
func TestScreenPruneFloor(t *testing.T) {
	s := synth.Hurricane(64, 64, 7)
	pair := Monocular(s.Frame(0), s.Frame(1))
	for _, tc := range []struct {
		name  string
		p     Params
		floor float64
	}{{"scaled", ScaledParams(), 0.80}, {"luis", LuisParams(), 0.95}} {
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
		})
	}
}

// FuzzScreenBound draws small scenes and parameters — template and search
// radii with per-axis overrides, Fsemi on and off, Robust — and checks the
// screen's bound for every (pixel, hypothesis) and its invisibility in
// the output.
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
		sm := BuildSemiMap(prep)
		opt := Options{Robust: flags&2 != 0}
		checkScreenBound(t, prep, sm, opt)
		requireScreenInvisible(t, prep, sm, opt)
	})
}

package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"sma/internal/grid"
	"sma/internal/la"
	"sma/internal/synth"
)

// blockRows are the inputs of the block kernel's differential table:
// border-dominated grids (every template crosses the image edge), one
// multi-block hurricane, the NaN-pixel scene, a flat surface whose
// singular A takes the ridge path, and rectangular template and search
// overrides. Each row gives its continuous-model parameters; the Fsemi
// runs add NSS = 1, NST = 2.
var blockRows = []struct {
	name string
	pair func() Pair
	cont Params
}{
	{"3x3", func() Pair { return hurricanePair(3, 3, 1) }, contParams()},
	{"1x17", func() Pair { return hurricanePair(1, 17, 2) }, contParams()},
	{"17x1", func() Pair { return hurricanePair(17, 1, 3) }, contParams()},
	{"9x7", func() Pair { return hurricanePair(9, 7, 4) }, contParams()},
	{"hurricane-64", func() Pair { return hurricanePair(64, 64, 5) }, Params{NS: 2, NZS: 1, NZT: 2}},
	{"nan", func() Pair {
		s := synth.Hurricane(24, 24, 3)
		f1 := s.Frame(1)
		f1.Set(12, 12, float32(math.NaN()))
		return Monocular(s.Frame(0), f1)
	}, contParams()},
	{"flat-ridge", func() Pair {
		flat := grid.New(20, 12)
		flat.Fill(100)
		return Monocular(flat, flat.Clone())
	}, contParams()},
	{"rect-x", func() Pair { return hurricanePair(23, 19, 6) }, Params{NS: 2, NZS: 2, NZT: 2, NZTX: 4, NZSX: 3}},
	{"rect-y", func() Pair { return hurricanePair(19, 23, 7) }, Params{NS: 2, NZS: 1, NZT: 3, NZTY: 1, NZSY: 2}},
}

func hurricanePair(w, h int, seed int64) Pair {
	s := synth.Hurricane(w, h, seed)
	return Monocular(s.Frame(0), s.Frame(1))
}

// TestBlockKernelMatchesReference is the block kernel's differential
// table: every row × {Fcont, Fsemi} × {least squares, Robust} must be
// bit-identical — flow, ε and motion parameters — to
// TrackPreparedReference, through TrackPrepared (default blocks, one
// worker) with KeepMotion off and on, and with KeepMotion through the
// parallel driver at 1 and 3 workers on 5×3 blocks, whose edge blocks
// are ragged on every row's grid. The stored result rounds ε and θ to
// float32, which would hide a last-bit difference, so each pixel's
// float64 winner on the default blocks is compared too.
func TestBlockKernelMatchesReference(t *testing.T) {
	for _, row := range blockRows {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				p := row.cont
				if semi {
					p.NSS, p.NST = 1, 2
				}
				name := fmt.Sprintf("%s/semi=%v/robust=%v", row.name, semi, robust)
				t.Run(name, func(t *testing.T) {
					prep, err := Prepare(row.pair(), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					wins, ref := referenceRun(prep, sm, Options{Robust: robust, KeepMotion: true})
					requireSameWinners(t, prep, sm, searchAllBlocks(prep, sm, Options{Robust: robust}, fullWindow(p), blockSide, false), wins)
					noMotion := &Result{Flow: ref.Flow, Err: ref.Err}
					requireSameBits(t, "TrackPrepared", TrackPrepared(prep, sm, Options{Robust: robust}), noMotion)
					opt := Options{Robust: robust, KeepMotion: true}
					requireSameBits(t, "TrackPrepared(KeepMotion)", TrackPrepared(prep, sm, opt), ref)
					opt.blockW, opt.blockH = 5, 3
					for _, workers := range []int{1, 3} {
						got, err := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, workers)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, fmt.Sprintf("5x3 blocks, workers=%d", workers), got, ref)
					}
				})
			}
		}
	}
}

// winner is a pixel's incumbent with its θ.
type winner struct {
	incumbent
	theta la.Vec6
}

// referenceRun is TrackPreparedReference that also returns each pixel's
// float64 winner (the tracked pixel's δ included), in image raster order.
func referenceRun(prep *Prepared, sm *SemiMap, opt Options) ([]winner, *Result) {
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	wins := make([]winner, prep.W*prep.H)
	t := newTracker(prep, sm, opt)
	for y := 0; y < prep.H; y++ {
		for x := 0; x < prep.W; x++ {
			hx, hy, eps, theta := t.trackPixelReference(x, y)
			wins[y*prep.W+x] = winner{incumbent{hx: hx, hy: hy, eps: eps}, theta}
			res.set(x, y, hx, hy, eps, theta)
		}
	}
	return wins, res
}

// requireSameWinners fails unless the block kernel's incumbents (before
// the tracked pixel's δ, which it adds here) equal the reference winners
// bit for bit; any two NaNs match (see requireSameBits).
func requireSameWinners(t *testing.T, prep *Prepared, sm *SemiMap, got, want []winner) {
	t.Helper()
	for i, g := range got {
		x, y := i%prep.W, i/prep.W
		if sm != nil {
			dx, dy := sm.Delta(x, y, g.hx, g.hy)
			g.hx += dx
			g.hy += dy
		}
		w := want[i]
		same := g.hx == w.hx && g.hy == w.hy && sameF64(g.eps, w.eps)
		for k := range w.theta {
			same = same && sameF64(g.theta[k], w.theta[k])
		}
		if !same {
			t.Fatalf("(%d,%d): block kernel (%d,%d) ε=%v θ=%v, reference (%d,%d) ε=%v θ=%v",
				x, y, g.hx, g.hy, g.eps, g.theta, w.hx, w.hy, w.eps, w.theta)
		}
	}
}

// searchAllBlocks runs one block kernel over every side×side block of
// prep's image and returns each pixel's incumbent in image raster order,
// before the semi-fluid δ of the tracked pixel; noExit disables the ε
// early exit.
func searchAllBlocks(prep *Prepared, sm *SemiMap, opt Options, win hypWindow, side int, noExit bool) []winner {
	bw, bh := minInt(side, prep.W), minInt(side, prep.H)
	g := newTileGrid(prep.W, prep.H, bw, bh)
	k := newBlockKernel(prep, sm, opt, padNormals(prep), windowOrder(win), bw, bh)
	k.noEarlyExit = noExit
	out := make([]winner, prep.W*prep.H)
	for i := 0; i < g.tiles(); i++ {
		t := g.tile(i)
		k.searchTile(nil, t)
		for j := t.Y0; j < t.Y1; j++ {
			for i := t.X0; i < t.X1; i++ {
				p := (j-t.Y0)*k.bw + i - t.X0
				out[j*prep.W+i] = winner{k.best[p], k.theta[p]}
			}
		}
	}
	return out
}

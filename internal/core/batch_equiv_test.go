package core

import (
	"fmt"
	"math"
	"testing"

	"sma/internal/synth"
)

// The lane-width equivalence wall: every lane width and every tile shape
// must reproduce TrackPreparedReference bit for bit. This file extends
// kernel_equiv_test.go's contract across the lane widths of the search
// kernel (batch.go) and the pixel-tile parallel driver (tiles.go); run it
// under -race to also exercise the scheduler for data races
// (race_equiv_test.go does).

// batchWidths are the widths the wall pins: one hypothesis per pass,
// partial batches, the power-of-two sweet spots, and the full lane count.
var batchWidths = []int{1, 2, 4, 8}

// TestBatchKernelMatchesReference runs the full raster search at every
// lane width across the equivalence scenes × {continuous, semi-fluid} ×
// {least-squares, robust} and demands bit-identical flow, ε, and motion
// parameters against the retained naive kernel.
func TestBatchKernelMatchesReference(t *testing.T) {
	for _, sc := range equivScenes {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				p := contParams()
				if semi {
					p = testParams()
				}
				prep, err := Prepare(sc.pair(137), p)
				if err != nil {
					t.Fatal(err)
				}
				sm := BuildSemiMap(prep)
				ref := TrackPreparedReference(prep, sm, Options{Robust: robust, KeepMotion: true})
				for _, bw := range batchWidths {
					name := fmt.Sprintf("%s/semi=%v/robust=%v/batch=%d", sc.name, semi, robust, bw)
					t.Run(name, func(t *testing.T) {
						got := TrackPrepared(prep, sm, Options{Robust: robust, KeepMotion: true, batchHyps: bw})
						requireSameBits(t, "TrackPrepared", got, ref)
					})
				}
			}
		}
	}
}

// TestBatchEarlyExitBitIdentical is TestEarlyExitBitIdentical for the
// batch path: per-lane incumbent bounds with the ε early exit on must
// reproduce the exhaustive (no-exit) sweep exactly at every width.
func TestBatchEarlyExitBitIdentical(t *testing.T) {
	for _, bw := range batchWidths {
		for _, semi := range []bool{false, true} {
			t.Run(fmt.Sprintf("batch=%d/semi=%v", bw, semi), func(t *testing.T) {
				p := contParams()
				if semi {
					p = testParams()
				}
				s := synth.Thunderstorm(18, 18, 44)
				prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
				if err != nil {
					t.Fatal(err)
				}
				sm := BuildSemiMap(prep)
				opt := Options{batchHyps: bw}
				on := newTracker(prep, sm, opt)
				off := newTracker(prep, sm, opt)
				off.noEarlyExit = true
				for y := 0; y < prep.H; y++ {
					for x := 0; x < prep.W; x++ {
						hx1, hy1, e1, th1 := on.trackPixel(x, y)
						hx2, hy2, e2, th2 := off.trackPixel(x, y)
						if hx1 != hx2 || hy1 != hy2 {
							t.Fatalf("(%d,%d): argmin (%d,%d) with exit, (%d,%d) without",
								x, y, hx1, hy1, hx2, hy2)
						}
						if math.Float64bits(e1) != math.Float64bits(e2) {
							t.Fatalf("(%d,%d): ε %v with exit, %v without", x, y, e1, e2)
						}
						if th1 != th2 {
							t.Fatalf("(%d,%d): θ differs: %v vs %v", x, y, th1, th2)
						}
					}
				}
			})
		}
	}
}

// TestTileParallelBitIdentical sweeps tile shapes × worker counts over
// the tile-scheduled parallel driver and demands the bits of the serial
// batch kernel — the scheduling layer must be invisible in the output.
func TestTileParallelBitIdentical(t *testing.T) {
	p := testParams()
	s := synth.Hurricane(22, 22, 93)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	want := TrackPrepared(prep, sm, Options{KeepMotion: true})
	tiles := []struct{ tw, th int }{
		{0, 0},   // chooseTileSize default
		{1, 1},   // degenerate: one pixel per tile
		{5, 3},   // non-square, non-divisor of 22
		{22, 1},  // row strips (the old fan-out shape)
		{64, 64}, // single tile larger than the image
	}
	for _, tl := range tiles {
		for _, workers := range []int{1, 2, 3, 8} {
			name := fmt.Sprintf("tile=%dx%d/workers=%d", tl.tw, tl.th, workers)
			t.Run(name, func(t *testing.T) {
				opt := Options{KeepMotion: true, tileW: tl.tw, tileH: tl.th}
				got := TrackPreparedParallel(prep, sm, opt, workers)
				if !got.Flow.Equal(want.Flow) {
					t.Fatal("flow differs from serial kernel")
				}
				if !got.Err.Equal(want.Err) {
					t.Fatal("ε differs from serial kernel")
				}
				for i := range want.Motion {
					if !got.Motion[i].Equal(want.Motion[i]) {
						t.Fatalf("motion grid %d differs from serial kernel", i)
					}
				}
			})
		}
	}
}

// TestBatchWidthClamped pins effectiveBatch's clamping: 0 means the full
// lane count, negatives and overwide requests clamp into [1, BatchLanes],
// and every clamped width still matches the reference (spot check).
func TestBatchWidthClamped(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 8}, {-3, 1}, {1, 1}, {5, 5}, {8, 8}, {9, 8}, {100, 8},
	}
	for _, c := range cases {
		if got := effectiveBatch(Options{batchHyps: c.in}); got != c.want {
			t.Fatalf("effectiveBatch(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	s := synth.Hurricane(16, 16, 7)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), contParams())
	if err != nil {
		t.Fatal(err)
	}
	ref := TrackPreparedReference(prep, nil, Options{})
	for _, bw := range []int{-1, 3, 100} {
		got := TrackPrepared(prep, nil, Options{batchHyps: bw})
		if !got.Flow.Equal(ref.Flow) || !got.Err.Equal(ref.Err) {
			t.Fatalf("batchHyps=%d: output differs from reference", bw)
		}
	}
}

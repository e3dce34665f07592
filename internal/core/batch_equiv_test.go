package core

import (
	"fmt"
	"math"
	"testing"

	"sma/internal/synth"
)

// The pixel-batch equivalence wall: the block kernel (block.go) scores
// one hypothesis for a whole block of pixels from shared term planes, and
// every batch of pixels — every block shape — and every worker count must
// reproduce TrackPreparedReference bit for bit. This file extends
// kernel_equiv_test.go's contract across block shapes; run it under
// -race to also exercise the scheduler for data races
// (race_equiv_test.go does).

// batchWidths are the block sides the wall pins (batch=N runs N×N
// blocks): single-pixel blocks, where every template reaches across the
// padded block's edge, then blocks that leave ragged edge blocks on the
// 20² and 24² scenes.
var batchWidths = []int{1, 2, 4, 8}

// TestBatchKernelMatchesReference runs the full search at every block
// side across the equivalence scenes × {continuous, semi-fluid} ×
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
						got := TrackPrepared(prep, sm, Options{Robust: robust, KeepMotion: true, blockW: bw, blockH: bw})
						requireSameBits(t, "TrackPrepared", got, ref)
					})
				}
			}
		}
	}
}

// TestBatchEarlyExitBitIdentical is TestEarlyExitBitIdentical across
// block sides: per-pixel incumbent bounds with the ε early exit on must
// reproduce the exhaustive (no-exit) sweep exactly at every side.
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
				on := searchAllBlocks(prep, sm, Options{}, fullWindow(p), bw, false)
				off := searchAllBlocks(prep, sm, Options{}, fullWindow(p), bw, true)
				for i := range on {
					x, y := i%prep.W, i/prep.W
					a, b := on[i], off[i]
					if a.hx != b.hx || a.hy != b.hy {
						t.Fatalf("(%d,%d): argmin (%d,%d) with exit, (%d,%d) without",
							x, y, a.hx, a.hy, b.hx, b.hy)
					}
					if math.Float64bits(a.eps) != math.Float64bits(b.eps) {
						t.Fatalf("(%d,%d): ε %v with exit, %v without", x, y, a.eps, b.eps)
					}
					if a.theta != b.theta {
						t.Fatalf("(%d,%d): θ differs: %v vs %v", x, y, a.theta, b.theta)
					}
				}
			})
		}
	}
}

// TestTileParallelBitIdentical sweeps block shapes × worker counts over
// the block-scheduled parallel driver and demands the bits of the serial
// search — the scheduling layer must be invisible in the output.
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
		{0, 0},   // blockShape default
		{1, 1},   // degenerate: one pixel per block
		{5, 3},   // non-square, non-divisor of 22
		{22, 1},  // row strips (the old fan-out shape)
		{64, 64}, // single block larger than the image
	}
	for _, tl := range tiles {
		for _, workers := range []int{1, 2, 3, 8} {
			name := fmt.Sprintf("tile=%dx%d/workers=%d", tl.tw, tl.th, workers)
			t.Run(name, func(t *testing.T) {
				opt := Options{KeepMotion: true, blockW: tl.tw, blockH: tl.th}
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

// TestBatchWidthClamped pins blockShape's resolution of the block
// options: a side ≤ 0 means the default side (and a height ≤ 0 the
// width), a side beyond the image is clipped to it, and every resolved
// shape still matches the reference (spot check).
func TestBatchWidthClamped(t *testing.T) {
	cases := []struct{ w, h, wantW, wantH int }{
		{0, 0, blockSide, blockSide}, {-3, 0, blockSide, blockSide}, {1, 0, 1, 1},
		{5, 0, 5, 5}, {5, 3, 5, 3}, {5, -2, 5, 5}, {100, 0, 16, 16}, {100, 7, 16, 7},
	}
	for _, c := range cases {
		bw, bh := blockShape(Options{blockW: c.w, blockH: c.h}, 16, 16, 1)
		if bw != c.wantW || bh != c.wantH {
			t.Fatalf("blockShape(%d, %d) = %d×%d, want %d×%d", c.w, c.h, bw, bh, c.wantW, c.wantH)
		}
	}
	s := synth.Hurricane(16, 16, 7)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), contParams())
	if err != nil {
		t.Fatal(err)
	}
	ref := TrackPreparedReference(prep, nil, Options{})
	for _, bw := range []int{-1, 3, 100} {
		got := TrackPrepared(prep, nil, Options{blockW: bw})
		if !got.Flow.Equal(ref.Flow) || !got.Err.Equal(ref.Err) {
			t.Fatalf("blockW=%d: output differs from reference", bw)
		}
	}
}

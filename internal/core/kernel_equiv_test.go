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

// This file locks the block kernel (factor-once A, term planes, factored
// solves, ε early exit) to the retained naive kernel in reference.go.
// Every comparison is bitwise: the optimization contract is exact
// equivalence, not numerical closeness.

// equivScenes are the inputs of the kernel-vs-reference tables. The nan
// scene has one NaN pixel in frame 1: at 72 of its pixels the anchor
// hypothesis scores ε = NaN while another hypothesis is finite. The
// reference accepts the anchor unconditionally, so the NaN anchor wins
// there; a search that seeded its incumbent with ε = +Inf instead would
// let the finite hypothesis win, and this scene catches it.
var equivScenes = []struct {
	name string
	pair func(seed int64) Pair
}{
	{"hurricane", func(seed int64) Pair {
		s := synth.Hurricane(20, 20, seed)
		return Monocular(s.Frame(0), s.Frame(1))
	}},
	{"thunderstorm", func(seed int64) Pair {
		s := synth.Thunderstorm(20, 20, seed)
		return Monocular(s.Frame(0), s.Frame(1))
	}},
	{"nan", func(int64) Pair {
		s := synth.Hurricane(24, 24, 3)
		f1 := s.Frame(1)
		f1.Set(12, 12, float32(math.NaN()))
		return Monocular(s.Frame(0), f1)
	}},
}

// requireSameBits fails unless got and want hold bit-identical flow, ε
// and motion parameters. It compares float32 bit patterns because
// Grid.Equal treats NaN as unequal to itself; any two NaNs match, since
// which NaN operand an x86 addition propagates (and so the sign of the
// result) follows the compiler's operand order, which -race changes.
func requireSameBits(t *testing.T, what string, got, want *Result) {
	t.Helper()
	same := func(a, b *grid.Grid) bool {
		if len(a.Data) != len(b.Data) {
			return false
		}
		for i, v := range a.Data {
			w := b.Data[i]
			if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
				return false
			}
		}
		return true
	}
	if !same(got.Flow.U, want.Flow.U) || !same(got.Flow.V, want.Flow.V) {
		t.Fatalf("%s: flow differs from reference kernel", what)
	}
	if !same(got.Err, want.Err) {
		t.Fatalf("%s: ε differs from reference kernel", what)
	}
	if len(got.Motion) != len(want.Motion) {
		t.Fatalf("%s: %d motion grids, want %d", what, len(got.Motion), len(want.Motion))
	}
	for i := range want.Motion {
		if !same(got.Motion[i], want.Motion[i]) {
			t.Fatalf("%s: motion grid %d differs from reference kernel", what, i)
		}
	}
}

// TestOptimizedKernelMatchesReference runs the full search with both
// kernels across the equivalence scenes × {continuous, semi-fluid} ×
// {least-squares, robust} — serially and through the tiled parallel
// driver at 1 and 3 workers — and demands bit-identical flow, ε, and
// motion parameters.
func TestOptimizedKernelMatchesReference(t *testing.T) {
	for _, sc := range equivScenes {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				name := fmt.Sprintf("%s/semi=%v/robust=%v", sc.name, semi, robust)
				t.Run(name, func(t *testing.T) {
					p := contParams()
					if semi {
						p = testParams()
					}
					prep, err := Prepare(sc.pair(211), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					opt := Options{Robust: robust, KeepMotion: true}
					ref := TrackPreparedReference(prep, sm, opt)
					requireSameBits(t, "TrackPrepared", TrackPrepared(prep, sm, opt), ref)
					for _, workers := range []int{1, 3} {
						got, err := TrackPreparedParallelCtx(context.Background(), prep, sm, opt, workers)
						if err != nil {
							t.Fatal(err)
						}
						requireSameBits(t, fmt.Sprintf("TrackPreparedParallelCtx(workers=%d)", workers), got, ref)
					}
				})
			}
		}
	}
}

// TestEarlyExitBitIdentical sweeps every pixel with the ε early exit on
// and off: the argmin (hx, hy, ε, θ) must be bit-identical, because a
// pruned hypothesis provably cannot beat the incumbent under the strict
// ε < best acceptance.
func TestEarlyExitBitIdentical(t *testing.T) {
	for _, seed := range []int64{31, 32, 33} {
		for _, semi := range []bool{false, true} {
			for _, robust := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/semi=%v/robust=%v", seed, semi, robust)
				t.Run(name, func(t *testing.T) {
					p := contParams()
					if semi {
						p = testParams()
					}
					s := synth.Hurricane(18, 18, seed)
					prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), p)
					if err != nil {
						t.Fatal(err)
					}
					sm := BuildSemiMap(prep)
					opt := Options{Robust: robust}
					on := searchAllBlocks(prep, sm, opt, fullWindow(p), blockSide, false)
					off := searchAllBlocks(prep, sm, opt, fullWindow(p), blockSide, true)
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
}

// TestMotionFactorMatchesSolveMotion pins the hoisted factor-once path to
// solveMotion on both branches: the plain elimination and the ridge
// fallback for rank-deficient A.
func TestMotionFactorMatchesSolveMotion(t *testing.T) {
	check := func(t *testing.T, a *la.Mat6, rhs []la.Vec6) {
		t.Helper()
		var mf motionFactor
		fa := *a
		mf.factorMotion(&fa)
		for i, b := range rhs {
			ba, bb := b, b
			aa := *a
			want := solveMotion(&aa, &ba)
			got := mf.solveFactored(&bb)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("rhs %d, θ[%d]: factored %v != solveMotion %v", i, j, got[j], want[j])
				}
			}
		}
	}
	someRHS := func(base float64) []la.Vec6 {
		out := make([]la.Vec6, 5)
		for i := range out {
			for j := range out[i] {
				out[i][j] = base + float64(i)*0.7 - float64(j)*0.3
			}
		}
		return out
	}

	t.Run("well-conditioned", func(t *testing.T) {
		var a la.Mat6
		for k := 0; k < 9; k++ {
			zx := 0.2*float64(k) - 0.8
			zy := 0.5 - 0.1*float64(k)
			accumulateA(&a, zx, zy, 1.1, 0.9)
		}
		symmetrize(&a)
		check(t, &a, someRHS(0.25))
	})
	t.Run("ridge-fallback", func(t *testing.T) {
		// A flat surface (zx = zy = 0) leaves the normal equations rank
		// deficient; solveMotion falls back to a ridge derived from tr(A),
		// which is hypothesis-invariant, so factorMotion hoists it too.
		var a la.Mat6
		for k := 0; k < 9; k++ {
			accumulateA(&a, 0, 0, 1, 1)
		}
		symmetrize(&a)
		if _, ok := la.Factor6(&a); ok {
			t.Fatal("flat-surface system unexpectedly factorable; test needs a harder case")
		}
		check(t, &a, someRHS(0.05))
	})
	t.Run("zero-system", func(t *testing.T) {
		var a la.Mat6
		check(t, &a, someRHS(0.4))
	})
}

// TestResidualSumBoundedExact pins the pruning contract: with an infinite
// bound the bounded sum equals residualSum bitwise, and a pruned
// evaluation implies the true ε is at least the bound. scoreReference
// fills every buffer slot for the hypothesis and returns residualSum.
func TestResidualSumBoundedExact(t *testing.T) {
	s := synth.Hurricane(16, 16, 51)
	prep, err := Prepare(Monocular(s.Frame(0), s.Frame(1)), contParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(prep, nil, Options{})
	for y := 3; y < 13; y += 3 {
		for x := 3; x < 13; x += 3 {
			full, th := tr.scoreReference(x, y, 1, 0)
			if got, _ := residualSumBounded(tr.buf, &th, math.Inf(1)); math.Float64bits(got) != math.Float64bits(full) {
				t.Fatalf("(%d,%d): unbounded residualSumBounded %v != residualSum %v", x, y, got, full)
			}
			for _, frac := range []float64{0.1, 0.5, 0.9} {
				bound := full * frac
				eps, pruned := residualSumBounded(tr.buf, &th, bound)
				if !pruned {
					t.Fatalf("(%d,%d): bound %v below ε %v not pruned", x, y, bound, full)
				}
				if eps < bound {
					t.Fatalf("(%d,%d): pruned with partial sum %v below bound %v", x, y, eps, bound)
				}
			}
		}
	}
}

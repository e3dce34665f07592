package core

import "context"

// TrackSequential runs the SMA algorithm exactly as the paper's
// "sequential (un-optimized) version ... used to form a baseline for
// comparing the correctness of the parallel algorithm results": prepare
// geometry, precompute the semi-fluid template mapping, then run the full
// hypothesis search on one worker — bit-identical to the reference
// kernel's pixel-by-pixel raster loop (TrackPreparedReference).
func TrackSequential(pair Pair, p Params, opt Options) (*Result, error) {
	prep, err := Prepare(pair, p)
	if err != nil {
		return nil, err
	}
	sm := BuildSemiMap(prep)
	return TrackPrepared(prep, sm, opt), nil
}

// TrackPrepared runs the hypothesis search on already-prepared geometry,
// letting callers stage (and time) preparation separately. It is the
// exact block kernel on one worker, whatever opt.Pyramid says.
func TrackPrepared(prep *Prepared, sm *SemiMap, opt Options) *Result {
	opt.Pyramid = PyramidOptions{}
	//smavet:allow errdiscard,ctxflow -- non-ctx serial entry point: a deliberate uncancellable root, so the error is impossible
	res, _ := trackBlocks(context.Background(), prep, sm, opt, 1)
	return res
}

// OpCounts is the analytic per-pixel operation inventory of one tracking
// timestep — the quantity both the MasPar cost accounting and the
// sequential SGI projection are built from. Counts are per tracked pixel.
type OpCounts struct {
	FitPasses     int   // full-image surface-fit passes
	SurfaceFlops  int64 // per pixel per fit pass: accumulation work
	SurfaceGauss  int64 // 6×6 eliminations per pixel per fit pass (1)
	GeomFlops     int64 // normals/E/G/D per pixel per fit pass
	SemiMapFlops  int64 // semi-fluid mapping per pixel (all hypotheses)
	HypFlops      int64 // hypothesis matching per pixel (all hypotheses)
	HypGauss      int64 // eliminations per pixel (= Hypotheses())
	TemplateFetch int64 // neighborhood values read per pixel in matching
}

// CountOps derives the operation inventory from the parameters. The
// per-site constants model the optimized MPL kernels the paper describes:
// the motion accumulation exploits the reduction to (ni′²+nj′²) and nk′
// (§4.1), budgeted at 120 flops per template pixel plus 60 in the ε
// evaluation; each semi-fluid discriminant comparison (including its
// plural address arithmetic) is budgeted at 24 flops; the surface fit
// accumulates 12 flops per window pixel. These constants, together with
// the machine's published sustained rates, reproduce the magnitude and —
// more importantly — the ratios of the paper's Tables 2 and 4 (see
// EXPERIMENTS.md for the calibration notes).
func CountOps(p Params, fitPasses int) OpCounts {
	fitWin := int64(2*p.NS+1) * int64(2*p.NS+1)
	hyps := int64(p.Hypotheses())
	tw := int64(p.TemplatePixels())
	oc := OpCounts{
		FitPasses:     fitPasses,
		SurfaceFlops:  12 * fitWin,
		SurfaceGauss:  1,
		GeomFlops:     20,
		HypFlops:      hyps * tw * (120 + 60),
		HypGauss:      hyps,
		TemplateFetch: hyps * tw,
	}
	if p.SemiFluid() {
		ss := int64(2*p.NSS+1) * int64(2*p.NSS+1)
		st := int64(2*p.NST+1) * int64(2*p.NST+1)
		oc.SemiMapFlops = hyps * ss * st * 24
	}
	return oc
}

// ScoreOnce evaluates a single zero-offset correspondence hypothesis at
// (x, y) with the continuous mapping — the microbenchmark kernel behind
// the paper's Figure 4 (per-correspondence time vs z-template size) — as
// the block kernel on the 1×1 block {(x, y)}. It reads the unpadded
// normals: padding them would cost more than the one hypothesis, and a
// template that crosses the border reads through the clamp instead.
func ScoreOnce(prep *Prepared, x, y int) float64 {
	k := newBlockKernel(prep, nil, Options{}, padNormalsBy(prep.G1, 0, 0), windowOrder(hypWindow{}), 1, 1)
	k.searchTile(nil, tileRect{X0: x, Y0: y, X1: x + 1, Y1: y + 1})
	return k.best[0].eps
}

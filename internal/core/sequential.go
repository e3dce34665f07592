package core

// TrackSequential runs the SMA algorithm exactly as the paper's
// "sequential (un-optimized) version ... used to form a baseline for
// comparing the correctness of the parallel algorithm results": prepare
// geometry, precompute the semi-fluid template mapping, then run the full
// hypothesis search pixel by pixel in raster order.
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
// serial raster loop: one tracker, pixels in scan order.
func TrackPrepared(prep *Prepared, sm *SemiMap, opt Options) *Result {
	res := newResult(prep.W, prep.H, opt.KeepMotion)
	t := newTracker(prep, sm, opt)
	for y := 0; y < prep.H; y++ {
		for x := 0; x < prep.W; x++ {
			hx, hy, eps, theta := t.trackPixel(x, y)
			res.set(x, y, hx, hy, eps, theta)
		}
	}
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
// the paper's Figure 4 (per-correspondence time vs z-template size).
func ScoreOnce(prep *Prepared, x, y int) float64 {
	t := newTracker(prep, nil, Options{})
	_, _, eps, _ := t.searchWindow(x, y, hypWindow{})
	return eps
}

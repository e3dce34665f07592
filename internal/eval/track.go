package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"sma/internal/core"
	"sma/internal/synth"
)

// TrackReps is how many times TrackThroughputExperiment times each
// kernel; the runs interleave (reference, serial, parallel, then again),
// and the BENCH file records the median and the spread.
const TrackReps = 5

// TrackThroughput is one tracking-kernel trajectory point: the same
// prepared hurricane pair tracked with the retained naive kernel (rebuild
// and re-eliminate the 6×6 normal equations for every hypothesis, sum
// every residual to the end) and with the block kernel of block.go
// (factor A once per pixel, build each hypothesis's b-pass terms once per
// block, early-exit the ε sum against the incumbent best). The two are
// bit-identical — the point errors otherwise — so the speedup is pure
// kernel restructuring.
type TrackThroughput struct {
	Name           string `json:"name"`
	Size           int    `json:"size"`
	Seed           int64  `json:"seed"`
	Workers        int    `json:"workers"`
	Reps           int    `json:"reps"`
	Host           Host   `json:"host"`
	Hypotheses     int    `json:"hypotheses_per_pixel"`
	TemplatePixels int    `json:"template_pixels"`
	PixelsTracked  int64  `json:"pixels_tracked"`
	Reference      Timing `json:"reference"`
	Optimized      Timing `json:"optimized"`
	Parallel       Timing `json:"parallel"`
	// The rates and ratios below come from the median times.
	// PixelsPerSec rates the serial block kernel; the reference and
	// parallel figures bracket it from below and above.
	PixelsPerSec         float64 `json:"pixels_per_sec"`
	PixelsPerSecRef      float64 `json:"pixels_per_sec_reference"`
	PixelsPerSecParallel float64 `json:"pixels_per_sec_parallel"`
	NsPerHypothesis      float64 `json:"ns_per_hypothesis"`
	NsPerHypothesisRef   float64 `json:"ns_per_hypothesis_reference"`
	SpeedupVsReference   float64 `json:"speedup_vs_reference"`
	SpeedupParallel      float64 `json:"speedup_parallel_vs_reference"`
	// ParallelEfficiency is per-worker efficiency of the parallel driver
	// against the serial kernel: (optimized / parallel) / workers. 1.0 is
	// perfect scaling; on a host with fewer cores than workers it
	// measures oversubscription, not the scheduler (Host.GOMAXPROCS).
	ParallelEfficiency float64 `json:"parallel_efficiency"`
	BitIdentical       bool    `json:"bit_identical"`
}

// TrackThroughputExperiment measures the block kernel against the naive
// reference on a size×size semi-fluid hurricane pair at ScaledParams,
// TrackReps interleaved times each. The returned point doubles as a
// conformance check: it errors if any run's motion fields are not
// bit-identical to the reference kernel's.
func TrackThroughputExperiment(size, workers int, seed int64) (TrackThroughput, error) {
	out := TrackThroughput{Name: "track_throughput", Size: size, Seed: seed, Reps: TrackReps, Host: HostInfo()}
	if size < 8 {
		return out, fmt.Errorf("eval: size %d too small for the template+search footprint", size)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out.Workers = workers

	p := core.ScaledParams()
	out.Hypotheses = p.Hypotheses()
	out.TemplatePixels = p.TemplatePixels()

	scene := synth.Hurricane(size, size, seed)
	prep, err := core.Prepare(core.Monocular(scene.Frame(0), scene.Frame(1)), p)
	if err != nil {
		return out, err
	}
	sm := core.BuildSemiMap(prep)
	pixels := int64(size) * int64(size)
	out.PixelsTracked = pixels
	hyps := float64(pixels) * float64(out.Hypotheses)

	timed := func(secs *[]float64, run func() *core.Result) *core.Result {
		t0 := time.Now()
		res := run()
		*secs = append(*secs, time.Since(t0).Seconds())
		return res
	}
	var refSec, optSec, parSec []float64
	out.BitIdentical = true
	for rep := 0; rep < TrackReps; rep++ {
		ref := timed(&refSec, func() *core.Result { return core.TrackPreparedReference(prep, sm, core.Options{}) })
		opt := timed(&optSec, func() *core.Result { return core.TrackPrepared(prep, sm, core.Options{}) })
		par := timed(&parSec, func() *core.Result { return core.TrackPreparedParallel(prep, sm, core.Options{}, workers) })
		out.BitIdentical = out.BitIdentical && opt.Flow.Equal(ref.Flow) && opt.Err.Equal(ref.Err) &&
			par.Flow.Equal(ref.Flow) && par.Err.Equal(ref.Err)
	}
	out.Reference, out.Optimized, out.Parallel = newTiming(refSec), newTiming(optSec), newTiming(parSec)
	if !out.BitIdentical {
		return out, fmt.Errorf("eval: block kernel is not bit-identical to the reference kernel")
	}

	ref, opt, par := out.Reference.MedianSec, out.Optimized.MedianSec, out.Parallel.MedianSec
	if opt > 0 {
		out.PixelsPerSec = float64(pixels) / opt
		out.NsPerHypothesis = opt * 1e9 / hyps
		out.SpeedupVsReference = ref / opt
	}
	if ref > 0 {
		out.PixelsPerSecRef = float64(pixels) / ref
		out.NsPerHypothesisRef = ref * 1e9 / hyps
	}
	if par > 0 {
		out.PixelsPerSecParallel = float64(pixels) / par
		out.SpeedupParallel = ref / par
		out.ParallelEfficiency = opt / par / float64(workers)
	}
	return out, nil
}

// WriteJSON writes the trajectory point as indented JSON, the
// BENCH_track.json format CI archives.
func (r TrackThroughput) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

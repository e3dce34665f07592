package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sma/internal/core"
	"sma/internal/synth"
)

// MaxSerialOverhead bounds BENCH_scaling's workers=1 strong point as a
// multiple of the serial optimized time: the tile scheduler's overhead
// bound (the row fan-out it replaced lost ~10% here).
const MaxSerialOverhead = 1.25

// ScalingPoint is one worker count of the scaling study.
type ScalingPoint struct {
	Workers      int     `json:"workers"`
	Size         int     `json:"size"`
	Pixels       int64   `json:"pixels"`
	Sec          float64 `json:"sec"`
	PixelsPerSec float64 `json:"pixels_per_sec"`
	// Speedup is T(1 worker)/T(w workers) over this series' own
	// workers=1 point; Efficiency normalizes it per worker (strong
	// series) or reports T1/Tw directly (weak series, where perfect
	// scaling holds the time constant as work grows with workers).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// Scaling is the BENCH_scaling.json trajectory point: the tile-scheduled
// parallel driver measured both ways the paper's PE-array analysis is
// usually read — strong scaling (the size×size hurricane pair is fixed
// while workers grow) and weak scaling (pixels grow proportionally to
// workers, size·√w per side, so per-worker work is constant).
type Scaling struct {
	Name     string `json:"name"`
	BaseSize int    `json:"base_size"`
	Workers  []int  `json:"worker_counts"`
	// GoMaxProcs is the cores available to this run. On a host with
	// fewer cores than workers the upper strong-scaling points measure
	// oversubscription, not scaling; Check gates the parallel-beats-serial
	// criterion only when GoMaxProcs ≥ ParallelGateCores.
	GoMaxProcs     int     `json:"gomaxprocs"`
	Hypotheses     int     `json:"hypotheses_per_pixel"`
	ReferenceSec   float64 `json:"reference_sec"`
	SerialSec      float64 `json:"serial_sec"`
	SpeedupVsRef   float64 `json:"speedup_vs_reference"`
	BestStrongSec  float64 `json:"best_strong_sec"`
	BestStrongWkrs int     `json:"best_strong_workers"`
	// ParallelBeatsSerial reports the acceptance criterion this study
	// exists to watch: some strong point at workers ≥ 4 under the serial
	// optimized time.
	ParallelBeatsSerial bool           `json:"parallel_beats_serial"`
	Strong              []ScalingPoint `json:"strong"`
	Weak                []ScalingPoint `json:"weak"`
	BitIdentical        bool           `json:"bit_identical"`
}

// ScalingExperiment runs the scaling study on semi-fluid hurricane pairs
// at ScaledParams. baseSize is the strong-scaling input side (and the
// weak-scaling per-worker work unit); workers is the ladder of worker
// counts (nil → {1, 2, 4, 8}). Like TrackThroughputExperiment the run
// doubles as a conformance check: every parallel result on the base pair
// must be bit-identical to the serial optimized kernel.
func ScalingExperiment(ctx context.Context, baseSize int, workers []int, seed int64) (Scaling, error) {
	out := Scaling{Name: "scaling", BaseSize: baseSize}
	if baseSize < 8 {
		return out, fmt.Errorf("eval: size %d too small for the template+search footprint", baseSize)
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	out.Workers = workers
	out.GoMaxProcs = runtime.GOMAXPROCS(0)

	p := core.ScaledParams()
	out.Hypotheses = p.Hypotheses()

	scene := synth.Hurricane(baseSize, baseSize, seed)
	prep, err := core.Prepare(core.Monocular(scene.Frame(0), scene.Frame(1)), p)
	if err != nil {
		return out, err
	}
	sm := core.BuildSemiMap(prep)
	pixels := int64(baseSize) * int64(baseSize)

	t0 := time.Now()
	ref := core.TrackPreparedReference(prep, sm, core.Options{})
	out.ReferenceSec = time.Since(t0).Seconds()

	t1 := time.Now()
	serial := core.TrackPrepared(prep, sm, core.Options{})
	out.SerialSec = time.Since(t1).Seconds()
	if out.SerialSec > 0 {
		out.SpeedupVsRef = out.ReferenceSec / out.SerialSec
	}
	out.BitIdentical = serial.Flow.Equal(ref.Flow) && serial.Err.Equal(ref.Err)

	// Strong scaling: the same prepared pair, growing worker counts.
	out.BestStrongSec = math.Inf(1)
	for _, w := range workers {
		t2 := time.Now()
		res, err := core.TrackPreparedParallelCtx(ctx, prep, sm, core.Options{}, w)
		if err != nil {
			return out, err
		}
		sec := time.Since(t2).Seconds()
		pt := ScalingPoint{Workers: w, Size: baseSize, Pixels: pixels, Sec: sec}
		if sec > 0 {
			pt.PixelsPerSec = float64(pixels) / sec
		}
		out.Strong = append(out.Strong, pt)
		out.BitIdentical = out.BitIdentical && res.Flow.Equal(ref.Flow) && res.Err.Equal(ref.Err)
		if sec < out.BestStrongSec {
			out.BestStrongSec = sec
			out.BestStrongWkrs = w
		}
		if w >= 4 && sec < out.SerialSec {
			out.ParallelBeatsSerial = true
		}
	}
	fillScaling(out.Strong, true)

	// Weak scaling: per-worker work held at baseSize² pixels, so the
	// input side grows as baseSize·√w (pixel count ∝ workers).
	for _, w := range workers {
		size := int(math.Round(float64(baseSize) * math.Sqrt(float64(w))))
		ws := synth.Hurricane(size, size, seed+int64(w))
		wprep, err := core.Prepare(core.Monocular(ws.Frame(0), ws.Frame(1)), p)
		if err != nil {
			return out, err
		}
		wsm := core.BuildSemiMap(wprep)
		t3 := time.Now()
		if _, err := core.TrackPreparedParallelCtx(ctx, wprep, wsm, core.Options{}, w); err != nil {
			return out, err
		}
		sec := time.Since(t3).Seconds()
		pt := ScalingPoint{Workers: w, Size: size, Pixels: int64(size) * int64(size), Sec: sec}
		if sec > 0 {
			pt.PixelsPerSec = float64(pt.Pixels) / sec
		}
		out.Weak = append(out.Weak, pt)
	}
	fillScaling(out.Weak, false)

	if !out.BitIdentical {
		return out, fmt.Errorf("eval: parallel driver is not bit-identical to the reference kernel")
	}
	return out, nil
}

// fillScaling derives speedup/efficiency for a series from its own
// workers=1 point (the first point whose Workers == 1; if the ladder
// lacks one, the smallest worker count anchors and efficiency is
// relative to it).
func fillScaling(pts []ScalingPoint, strong bool) {
	if len(pts) == 0 {
		return
	}
	t1 := pts[0].Sec
	for _, pt := range pts {
		if pt.Workers == 1 {
			t1 = pt.Sec
			break
		}
	}
	for i := range pts {
		if pts[i].Sec <= 0 || t1 <= 0 {
			continue
		}
		pts[i].Speedup = t1 / pts[i].Sec
		if strong {
			pts[i].Efficiency = pts[i].Speedup / float64(pts[i].Workers)
		} else {
			// Weak scaling: ideal is constant time, so efficiency is
			// T1/Tw directly.
			pts[i].Efficiency = t1 / pts[i].Sec
		}
	}
}

// Check gates the study: bit-identity, the workers=1 strong point within
// MaxSerialOverhead of the serial time, and, on at least
// ParallelGateCores cores, some strong point at ≥ 4 workers beating
// serial.
func (s Scaling) Check() error {
	var errs []error
	if !s.BitIdentical {
		errs = append(errs, errors.New("parallel driver not bit-identical to the reference"))
	}
	w1 := -1
	for i, pt := range s.Strong {
		if pt.Workers == 1 {
			w1 = i
			break
		}
	}
	if w1 < 0 {
		errs = append(errs, errors.New("no workers=1 strong point to bound the scheduler overhead"))
	} else if sec := s.Strong[w1].Sec; !(sec <= MaxSerialOverhead*s.SerialSec) {
		errs = append(errs, fmt.Errorf("1-worker tile driver %.3fs exceeds serial %.3fs x %.2f",
			sec, s.SerialSec, MaxSerialOverhead))
	}
	if s.GoMaxProcs >= ParallelGateCores && !s.ParallelBeatsSerial {
		errs = append(errs, fmt.Errorf("parallel does not beat serial at >= 4 workers on %d cores", s.GoMaxProcs))
	}
	return errors.Join(errs...)
}

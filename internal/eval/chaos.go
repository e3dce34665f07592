package eval

import (
	"fmt"
	"time"

	"sma/internal/core"
	"sma/internal/fault"
	"sma/internal/grid"
	"sma/internal/stream"
	"sma/internal/synth"
)

// FaultTolerance is one robustness trajectory point: the same N-frame
// sequence tracked clean and under a seeded fault schedule, with the
// degraded-mode counters checked against the plan's exact expectation
// and every surviving pair checked bit-identical to the clean run.
type FaultTolerance struct {
	Name           string  `json:"name"`
	Size           int     `json:"size"`
	Frames         int     `json:"frames"`
	Seed           int64   `json:"seed"`
	FailFrames     int     `json:"fail_frames"`
	FlakyFrames    int     `json:"flaky_frames"`
	DamageFrames   int     `json:"damage_frames"`
	Retries        int64   `json:"retries"`
	FramesSkipped  int64   `json:"frames_skipped"`
	PairsSkipped   int64   `json:"pairs_skipped"`
	Gaps           int64   `json:"gaps"`
	SurvivingPairs int     `json:"surviving_pairs"`
	CleanSec       float64 `json:"clean_sec"`
	DegradedSec    float64 `json:"degraded_sec"`
	OverheadPct    float64 `json:"overhead_pct"`
	CountersExact  bool    `json:"counters_exact"`
	BitIdentical   bool    `json:"bit_identical"`
}

// FaultToleranceExperiment runs the degraded-mode pipeline through a
// seeded fault schedule over a synthetic hurricane sequence and verifies
// the robustness contract end to end. It errors if any counter deviates
// from the plan's expectation or any surviving pair differs from the
// undamaged run.
func FaultToleranceExperiment(size, frames int, seed int64) (FaultTolerance, error) {
	cfg := fault.RandomConfig{FailFrames: 1, FlakyFrames: 1, DamageFrames: 2}
	out := FaultTolerance{
		Name: "fault_tolerance", Size: size, Frames: frames, Seed: seed,
		FailFrames: cfg.FailFrames, FlakyFrames: cfg.FlakyFrames, DamageFrames: cfg.DamageFrames,
	}
	if frames < 6 {
		return out, fmt.Errorf("eval: need at least 6 frames for a meaningful schedule, got %d", frames)
	}
	scene := synth.Hurricane(size, size, seed)
	seq := make([]*grid.Grid, frames)
	for i := range seq {
		seq[i] = scene.Frame(float64(i))
	}
	p := core.ScaledParams()

	t0 := time.Now()
	clean := make([]*core.Result, frames-1)
	for i := 0; i+1 < frames; i++ {
		res, err := core.TrackSequential(core.Monocular(seq[i], seq[i+1]), p, core.Options{})
		if err != nil {
			return out, err
		}
		clean[i] = res
	}
	out.CleanSec = time.Since(t0).Seconds()

	plan := fault.RandomPlan(seed, frames, cfg)
	e := plan.Expect(frames)
	out.SurvivingPairs = len(e.SurvivingPairs)

	streamCfg := stream.Config{
		Params: p,
		Retry:  stream.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		Skip:   stream.SkipPolicy{MaxSkips: -1},
		Gate:   &core.QualityGate{MaxBadFrac: 0, MaxDeadLineFrac: 1},
	}
	got := make(map[int]*core.Result)
	t1 := time.Now()
	st, err := stream.Stream(fault.WrapSource(stream.Grids(seq), plan), streamCfg,
		func(pair int, res *core.Result) error {
			got[pair] = res
			return nil
		})
	if err != nil {
		return out, fmt.Errorf("eval: degraded run failed: %w", err)
	}
	out.DegradedSec = time.Since(t1).Seconds()
	if out.CleanSec > 0 {
		out.OverheadPct = (out.DegradedSec/out.CleanSec - 1) * 100
	}

	out.Retries, out.FramesSkipped, out.PairsSkipped, out.Gaps =
		st.Retries, st.FramesSkipped, st.PairsSkipped, st.Gaps
	out.CountersExact = st.Retries == e.Retries && st.FramesSkipped == e.FramesSkipped &&
		st.PairsSkipped == e.PairsSkipped && st.Gaps == e.Gaps &&
		st.PairsTracked == int64(len(e.SurvivingPairs))
	if !out.CountersExact {
		return out, fmt.Errorf("eval: degraded counters %+v deviate from expectation %+v", st, e)
	}

	out.BitIdentical = true
	for _, pair := range e.SurvivingPairs {
		res, ok := got[pair]
		if !ok {
			out.BitIdentical = false
			return out, fmt.Errorf("eval: surviving pair %d was not emitted", pair)
		}
		if !res.Flow.Equal(clean[pair].Flow) || !res.Err.Equal(clean[pair].Err) {
			out.BitIdentical = false
			return out, fmt.Errorf("eval: surviving pair %d differs from the undamaged run", pair)
		}
	}
	return out, nil
}

package eval

import (
	"fmt"
	"runtime"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/stream"
	"sma/internal/synth"
)

// StreamThroughput is one frames/sec trajectory point of the streaming
// multi-frame pipeline: the same N-frame hurricane sequence tracked
// pairwise (the paper's one-pair-at-a-time mode, every frame fitted
// twice) and through internal/stream (each frame fitted once, pairs
// tracked concurrently), with bit-equality verified between the two.
type StreamThroughput struct {
	Name         string  `json:"name"`
	Size         int     `json:"size"`
	Frames       int     `json:"frames"`
	Workers      int     `json:"workers"`
	CacheSize    int     `json:"cache_size"`
	FitsComputed int64   `json:"fits_computed"`
	FitsReused   int64   `json:"fits_reused"`
	PairsTracked int64   `json:"pairs_tracked"`
	PairwiseSec  float64 `json:"pairwise_sec"`
	StreamSec    float64 `json:"stream_sec"`
	FramesPerSec float64 `json:"frames_per_sec"`
	PairsPerSec  float64 `json:"pairs_per_sec"`
	Speedup      float64 `json:"speedup_vs_pairwise"`
	BitIdentical bool    `json:"bit_identical"`
}

// StreamThroughputExperiment measures the streaming pipeline against the
// pairwise sequential baseline on a synthetic hurricane sequence. The
// returned point doubles as a conformance check: it errors if the
// streamed motion fields are not bit-identical to the baseline.
func StreamThroughputExperiment(size, frames, workers int, seed int64) (StreamThroughput, error) {
	out := StreamThroughput{Name: "stream_throughput", Size: size, Frames: frames}
	if frames < 2 {
		return out, fmt.Errorf("eval: need at least 2 frames, got %d", frames)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out.Workers = workers
	out.CacheSize = stream.DefaultCacheSize

	scene := synth.Hurricane(size, size, seed)
	seq := make([]*grid.Grid, frames)
	for i := range seq {
		seq[i] = scene.Frame(float64(i))
	}
	p := core.ScaledParams()

	t0 := time.Now()
	baseline := make([]*core.Result, frames-1)
	for i := 0; i+1 < frames; i++ {
		res, err := core.TrackSequential(core.Monocular(seq[i], seq[i+1]), p, core.Options{})
		if err != nil {
			return out, err
		}
		baseline[i] = res
	}
	out.PairwiseSec = time.Since(t0).Seconds()

	t1 := time.Now()
	results, st, err := stream.Run(stream.Grids(seq), stream.Config{Params: p, Workers: workers})
	if err != nil {
		return out, err
	}
	out.StreamSec = time.Since(t1).Seconds()

	out.FitsComputed = st.FitsComputed
	out.FitsReused = st.FitsReused
	out.PairsTracked = st.PairsTracked
	if out.StreamSec > 0 {
		out.FramesPerSec = float64(frames) / out.StreamSec
		out.PairsPerSec = float64(frames-1) / out.StreamSec
	}
	if out.StreamSec > 0 {
		out.Speedup = out.PairwiseSec / out.StreamSec
	}
	out.BitIdentical = true
	for i := range baseline {
		if !results[i].Flow.Equal(baseline[i].Flow) || !results[i].Err.Equal(baseline[i].Err) {
			out.BitIdentical = false
			return out, fmt.Errorf("eval: streamed pair %d is not bit-identical to the pairwise baseline", i)
		}
	}
	return out, nil
}

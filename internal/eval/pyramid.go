package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/synth"
)

// PyramidReps is how many times PyramidExperiment times each search at
// each NZS; the BENCH file records the median and the spread.
const PyramidReps = 5

// Timing is the median and range of repeated wall-clock runs.
type Timing struct {
	MedianSec float64 `json:"median_sec"`
	MinSec    float64 `json:"min_sec"`
	MaxSec    float64 `json:"max_sec"`
}

func newTiming(secs []float64) Timing {
	s := append([]float64(nil), secs...)
	sort.Float64s(s)
	return Timing{MedianSec: s[len(s)/2], MinSec: s[0], MaxSec: s[len(s)-1]}
}

// PyramidPoint is one NZS sample of the pyramid option's trajectory: the
// same prepared continuous-model pair searched exhaustively by the block
// kernel and by the summed-window search the option selects, timed
// without preparation, with the summed-window field scored against the
// block kernel's.
type PyramidPoint struct {
	NZS int `json:"nzs"`
	// Hypotheses is the (2·NZS+1)² per-pixel count both searches evaluate.
	Hypotheses int    `json:"hyp_per_pixel"`
	Exhaustive Timing `json:"exhaustive"`
	Summed     Timing `json:"summed"`
	// Speedup is the ratio of the two median times.
	Speedup float64 `json:"speedup"`
	// RMSE is measured at the scene's wind-barb tracer pixels against the
	// block kernel's field (grid units); Agreement is the fraction of all
	// pixels whose argmin displacement matches exactly.
	RMSE      float64 `json:"rmse"`
	Agreement float64 `json:"argmin_agreement"`
}

// PyramidResult is the BENCH_pyramid.json trajectory: the NZS sweep plus
// the conformance checks the smoke gate reads — kernel-vs-oracle
// bit-identity, argmin agreement and the Figure 5/6 fixture accuracy.
type PyramidResult struct {
	Name    string         `json:"name"`
	Size    int            `json:"size"`
	Workers int            `json:"workers"`
	Seed    int64          `json:"seed"`
	Reps    int            `json:"reps"`
	Host    Host           `json:"host"`
	Points  []PyramidPoint `json:"points"`
	// BitIdentical certifies that the summed-window search reproduced its
	// oracle, core.TrackSummedReference, byte for byte at every NZS and
	// on both fixtures; the experiment errors if it does not.
	BitIdentical bool `json:"bit_identical"`
	// MinAgreement is the lowest argmin agreement with the block kernel
	// over the sweep and the two fixtures.
	MinAgreement float64 `json:"min_argmin_agreement"`
	// Fig5RMSE / Fig6RMSE score the summed-window search against the block
	// kernel at the wind-barb tracers of the two accuracy fixtures
	// (hurricane and thunderstorm scenes), in grid units.
	Fig5RMSE float64 `json:"fig5_rmse"`
	Fig6RMSE float64 `json:"fig6_rmse"`
	// SpeedupAtNZS10 / RMSEAtNZS10 lift the gated sample out of the sweep
	// for the smoke script.
	SpeedupAtNZS10 float64 `json:"speedup_at_nzs10"`
	RMSEAtNZS10    float64 `json:"rmse_at_nzs10"`
}

// PyramidExperiment measures the summed-window search (Options.Pyramid)
// against the block kernel's exhaustive search on a size×size
// continuous-model hurricane pair across NZS ∈ {2, 5, 10, 20}, timing
// each PyramidReps times, interleaved. It doubles as a conformance check:
// it errors unless the summed-window search is byte-identical to its
// oracle at every point.
func PyramidExperiment(ctx context.Context, size, workers int, seed int64) (PyramidResult, error) {
	out := PyramidResult{Name: "pyramid", Size: size, Seed: seed, Reps: PyramidReps, Host: HostInfo(), MinAgreement: 1}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out.Workers = workers

	scene := synth.Hurricane(size, size, seed)
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	for _, nzs := range []int{2, 5, 10, 20} {
		p := core.Params{NS: 2, NZS: nzs, NZT: 3, NST: 2, NSS: 0}
		prep, err := core.Prepare(pair, p)
		if err != nil {
			return out, fmt.Errorf("eval: nzs %d: %w", nzs, err)
		}
		var exh, sum *core.Result
		var exhSec, sumSec []float64
		for rep := 0; rep < PyramidReps; rep++ {
			t0 := time.Now()
			if exh, err = core.TrackPreparedParallelCtx(ctx, prep, nil, core.Options{}, workers); err != nil {
				return out, err
			}
			exhSec = append(exhSec, time.Since(t0).Seconds())
			t1 := time.Now()
			if sum, _, err = core.TrackPyramidPreparedCtx(ctx, prep, summedOptions, workers); err != nil {
				return out, err
			}
			sumSec = append(sumSec, time.Since(t1).Seconds())
		}
		if err := out.checkOracle(prep, sum); err != nil {
			return out, fmt.Errorf("eval: nzs %d: %w", nzs, err)
		}
		pt := PyramidPoint{
			NZS:        nzs,
			Hypotheses: p.Hypotheses(),
			Exhaustive: newTiming(exhSec),
			Summed:     newTiming(sumSec),
			RMSE:       sum.Flow.RMSEAt(exh.Flow, synth.Barbs(pair.I0, 32, nzs+4, 4)),
			Agreement:  flowAgreement(sum.Flow, exh.Flow),
		}
		if pt.Summed.MedianSec > 0 {
			pt.Speedup = pt.Exhaustive.MedianSec / pt.Summed.MedianSec
		}
		out.MinAgreement = math.Min(out.MinAgreement, pt.Agreement)
		if nzs == 10 {
			out.SpeedupAtNZS10 = pt.Speedup
			out.RMSEAtNZS10 = pt.RMSE
		}
		out.Points = append(out.Points, pt)
	}

	// Figure 5/6 fixture accuracy: the hurricane and thunderstorm scenes
	// the accuracy experiments score, summed-window vs block kernel at the
	// barbs.
	var err error
	if out.Fig5RMSE, err = out.fixture(ctx, synth.Hurricane(64, 64, 7), 3, workers); err != nil {
		return out, fmt.Errorf("eval: fig5 fixture: %w", err)
	}
	if out.Fig6RMSE, err = out.fixture(ctx, synth.Thunderstorm(64, 64, 11), 2, workers); err != nil {
		return out, fmt.Errorf("eval: fig6 fixture: %w", err)
	}
	out.BitIdentical = true
	return out, nil
}

// summedOptions selects the summed-window search.
var summedOptions = core.Options{Pyramid: core.PyramidOptions{Levels: 2}}

// checkOracle errors unless res is byte-identical to the oracle's field.
func (r *PyramidResult) checkOracle(prep *core.Prepared, res *core.Result) error {
	want, err := core.TrackSummedReference(prep, summedOptions)
	if err != nil {
		return err
	}
	if !res.Flow.Equal(want.Flow) || !res.Err.Equal(want.Err) {
		return fmt.Errorf("summed-window search is not bit-identical to its oracle")
	}
	return nil
}

// fixture tracks one fixture scene with the summed-window search and the
// block kernel, checks the former against its oracle, folds the argmin
// agreement into MinAgreement and returns the barb-point RMSE.
func (r *PyramidResult) fixture(ctx context.Context, scene *synth.Scene, nzs, workers int) (float64, error) {
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	p := core.Params{NS: 2, NZS: nzs, NZT: 3, NST: 2, NSS: 0}
	prep, err := core.Prepare(pair, p)
	if err != nil {
		return math.NaN(), err
	}
	exh, err := core.TrackPreparedParallelCtx(ctx, prep, nil, core.Options{}, workers)
	if err != nil {
		return math.NaN(), err
	}
	sum, _, err := core.TrackPyramidPreparedCtx(ctx, prep, summedOptions, workers)
	if err != nil {
		return math.NaN(), err
	}
	if err := r.checkOracle(prep, sum); err != nil {
		return math.NaN(), err
	}
	r.MinAgreement = math.Min(r.MinAgreement, flowAgreement(sum.Flow, exh.Flow))
	return sum.Flow.RMSEAt(exh.Flow, synth.Barbs(pair.I0, 32, 8, 4)), nil
}

// flowAgreement is the fraction of pixels whose displacement matches
// exactly between the two fields.
func flowAgreement(a, b *grid.VectorField) float64 {
	n := len(a.U.Data)
	if n == 0 || n != len(b.U.Data) {
		return 0
	}
	same := 0
	for i := range a.U.Data {
		if a.U.Data[i] == b.U.Data[i] && a.V.Data[i] == b.V.Data[i] {
			same++
		}
	}
	return float64(same) / float64(n)
}

// WriteJSON writes the trajectory as indented JSON, the
// BENCH_pyramid.json format CI archives.
func (r PyramidResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

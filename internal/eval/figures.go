package eval

import (
	"fmt"
	"math"
	"strings"
	"time"

	"sma/internal/classify"
	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/maspar"
	"sma/internal/model"
	"sma/internal/stereo"
	"sma/internal/synth"
)

// Fig4Point is one sample of Figure 4: the time to compute a single pixel
// correspondence (one hypothesis evaluation) as a function of z-template
// size, both modeled for the paper's SGI and measured on the host.
type Fig4Point struct {
	Window   int // template edge length (11 … 131)
	Modeled  time.Duration
	Measured time.Duration
}

// Figure4 sweeps the z-template sizes of the paper's Figure 4 (11×11 to
// 131×131). The measured series times this implementation's hypothesis
// evaluation on the host; the modeled series projects the paper's SGI
// R8000/90, including the cache-induced nonlinearity the paper notes.
func Figure4(windows []int) ([]Fig4Point, error) {
	if len(windows) == 0 {
		windows = []int{11, 31, 51, 71, 91, 111, 131}
	}
	sgi := model.DefaultSGI()
	var out []Fig4Point
	for _, wsize := range windows {
		if wsize%2 == 0 || wsize < 3 {
			return nil, fmt.Errorf("eval: template window %d must be odd and >= 3", wsize)
		}
		nzt := wsize / 2
		p := core.FredericParams()
		p.NZT = nzt
		oc := core.CountOps(p, 2)
		modeled := time.Duration(float64(sgi.PixelTime(oc)) / float64(p.Hypotheses()))

		// Measure one hypothesis evaluation on a just-large-enough scene.
		size := wsize + 16
		s := synth.Hurricane(size, size, 7)
		prep, err := core.Prepare(core.Monocular(s.Frame(0), s.Frame(1)), p)
		if err != nil {
			return nil, err
		}
		reps := 3
		if wsize <= 51 {
			reps = 10
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			core.ScoreOnce(prep, size/2, size/2)
		}
		measured := time.Since(start) / time.Duration(reps)
		out = append(out, Fig4Point{Window: wsize, Modeled: modeled, Measured: measured})
	}
	return out, nil
}

// BarbResult is the Hurricane Frederic accuracy experiment of §5.1: the
// full stereo pipeline tracked densely, compared at sparse tracer pixels
// against the reference motion (the paper's 32 manual wind barbs; here the
// synthetic scene's exact ground truth), with the parallel/sequential
// equivalence check the paper reports.
type BarbResult struct {
	Size          int
	Barbs         []grid.Point
	RMSE          float64 // pixels, at the barb points (paper: < 1)
	DenseRMSE     float64 // pixels, all interior pixels
	ParallelEqual bool    // parallel result identical to sequential
	StereoRMSE    float64 // ASA disparity error, pixels
}

// WindBarbExperiment runs the Frederic-style pipeline at a scaled size:
// synthesize a hurricane stereo sequence with known height field, recover
// surfaces with the ASA matcher, track with the semi-fluid model on both
// drivers, and score against ground truth at 32 high-contrast tracers.
func WindBarbExperiment(size int, seed int64) (*BarbResult, error) {
	scene := synth.Hurricane(size, size, seed)
	i0 := scene.Frame(0)
	i1 := scene.Frame(1)
	truth := scene.Truth(1)

	// Stereo: synthesize right views from a known height field (smooth
	// cloud-top relief with a few pixels of disparity, as the GOES
	// geometry produces), then recover the surfaces with ASA as the
	// paper's pipeline does.
	height := func(img *grid.Grid) *grid.Grid {
		z := img.GaussianBlur(3)
		z.Apply(func(v float32) float32 { return v * 0.02 })
		return z
	}
	z0true := height(i0)
	z1true := height(i1)
	r0 := synth.StereoPair(i0, z0true)
	r1 := synth.StereoPair(i1, z1true)
	scfg := stereo.DefaultConfig()
	d0, err := stereo.Estimate(i0, r0, scfg)
	if err != nil {
		return nil, err
	}
	d1, err := stereo.Estimate(i1, r1, scfg)
	if err != nil {
		return nil, err
	}
	pair := core.Pair{I0: i0, I1: i1, Z0: d0, Z1: d1}

	p := core.ScaledParams()
	p.NZS = 3 // cover the scene's ~2.3 px/frame peak winds
	seq, err := core.TrackSequential(pair, p, core.Options{})
	if err != nil {
		return nil, err
	}
	m, err := maspar.New(maspar.ScaledConfig(8, 8))
	if err != nil {
		return nil, err
	}
	par, err := core.TrackMasPar(m, pair, p, core.Options{}, maspar.RasterReadout)
	if err != nil {
		return nil, err
	}

	margin := size / 8
	barbs := synth.Barbs(i0, 32, margin, 4)
	in := size - 2*margin
	res := &BarbResult{
		Size:          size,
		Barbs:         barbs,
		RMSE:          seq.Flow.RMSEAt(truth, barbs),
		ParallelEqual: par.Flow.Equal(seq.Flow) && par.Err.Equal(seq.Err),
		StereoRMSE: d0.Crop(margin, margin, in, in).
			RMSDiff(z0true.Crop(margin, margin, in, in)),
	}
	// Dense interior RMSE.
	var s float64
	n := 0
	for y := margin; y < size-margin; y++ {
		for x := margin; x < size-margin; x++ {
			u, v := seq.Flow.At(x, y)
			tu, tv := truth.At(x, y)
			du := float64(u - tu)
			dv := float64(v - tv)
			s += du*du + dv*dv
			n++
		}
	}
	res.DenseRMSE = math.Sqrt(s / float64(n))
	return res, nil
}

// Fig6Step is one timestep of the Figure 6 reproduction.
type Fig6Step struct {
	T      int
	RMSE   float64 // vs ground truth, interior pixels
	MeanU  float64
	MeanV  float64
	Quiver string // ASCII rendering of the subsampled field over cloudy pixels
}

// Figure6 reproduces the GOES-9 Florida thunderstorm tracking: a rapid-
// scan convective scene tracked with the continuous model over several
// timesteps, rendered as subsampled flow fields (the paper's Figure 6
// shows four of 48 timesteps as wind-vector imagery). Each rendering
// shows vectors only over classified cloudy pixels, Figure 6's
// convention ("we show the results ... over cloudy regions").
func Figure6(size, steps int, seed int64) ([]Fig6Step, error) {
	scene := synth.Thunderstorm(size, size, seed)
	p := core.GOES9Params()
	// Scale the windows to the scene (paper scale is 512; tests use less).
	if size < 256 {
		p = core.Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 0}
	}
	var out []Fig6Step
	for t := 0; t < steps; t++ {
		f0 := scene.Frame(float64(t))
		f1 := scene.Frame(float64(t + 1))
		res, err := core.TrackSequential(core.Monocular(f0, f1), p, core.Options{})
		if err != nil {
			return nil, err
		}
		truth := scene.Truth(1) // steady flow: same for every t
		margin := size / 8
		var s, su, sv float64
		n := 0
		for y := margin; y < size-margin; y++ {
			for x := margin; x < size-margin; x++ {
				u, v := res.Flow.At(x, y)
				tu, tv := truth.At(x, y)
				du := float64(u - tu)
				dv := float64(v - tv)
				s += du*du + dv*dv
				su += float64(u)
				sv += float64(v)
				n++
			}
		}
		out = append(out, Fig6Step{
			T:      t,
			RMSE:   math.Sqrt(s / float64(n)),
			MeanU:  su / float64(n),
			MeanV:  sv / float64(n),
			Quiver: Quiver(classify.MaskFlow(res.Flow, classify.CloudMask(f0)), size/16),
		})
	}
	return out, nil
}

// Quiver renders a displacement field as ASCII arrows sampled every
// `step` pixels — the text analog of the paper's wind-vector imagery.
func Quiver(f *grid.VectorField, step int) string {
	if step < 1 {
		step = 1
	}
	w, h := f.Bounds()
	// Always emit at least one sample row/column.
	if step > w {
		step = w
	}
	if step > h {
		step = h
	}
	glyphs := []rune{'→', '↗', '↑', '↖', '←', '↙', '↓', '↘'}
	var b strings.Builder
	for y := step / 2; y < h; y += step {
		for x := step / 2; x < w; x += step {
			u, v := f.At(x, y)
			mag := math.Hypot(float64(u), float64(v))
			if mag < 0.5 {
				b.WriteRune('·')
				continue
			}
			// Screen y grows downward; flip v for compass angles.
			ang := math.Atan2(-float64(v), float64(u))
			oct := int(math.Round(ang/(math.Pi/4)+8)) % 8
			b.WriteRune(glyphs[oct])
		}
		b.WriteRune('\n')
	}
	return b.String()
}

// AblationRow compares one design alternative's modeled communication cost.
type AblationRow struct {
	Name string
	XNet int64
	Mem  int64
	Time time.Duration
}

// ReadoutAblation models one full-template neighborhood fetch at paper
// scale under the four §3.2/§4.2 design alternatives: {hierarchical,
// cut-and-stack} × {snake, raster}. The paper's choices — hierarchical
// folding and raster read-out — must come out cheapest.
func ReadoutAblation(r int) ([]AblationRow, error) {
	cfg := maspar.DefaultConfig()
	m, err := maspar.New(cfg)
	if err != nil {
		return nil, err
	}
	hier, err := maspar.NewHierarchical(m, 512, 512)
	if err != nil {
		return nil, err
	}
	cut, err := maspar.NewCutStack(m, 512, 512)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, alt := range []struct {
		name string
		mp   maspar.Mapping
		s    maspar.FetchScheme
	}{
		{"hierarchical + raster (paper's choice)", hier, maspar.RasterReadout},
		{"hierarchical + snake", hier, maspar.SnakeReadout},
		{"cut-and-stack + raster", cut, maspar.RasterReadout},
		{"cut-and-stack + snake", cut, maspar.SnakeReadout},
	} {
		c, err := maspar.FetchCost(alt.mp, r, alt.s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: alt.name,
			XNet: c.XNetShifts,
			Mem:  c.MemDirect,
			Time: cfg.Time(c),
		})
	}
	// The rejected alternative: global-router transfers for neighborhood
	// traffic (§4.2's explicit design argument).
	rc := maspar.RouterFetchCost(hier, r)
	rows = append(rows, AblationRow{
		Name: "hierarchical + global router (rejected)",
		XNet: rc.RouterSends, // reported in the comm column
		Mem:  rc.MemDirect,
		Time: cfg.Time(rc),
	})
	return rows, nil
}

// SegmentationRow records the modeled effect of shrinking PE memory on
// the Frederic run: smaller memory → more segments → more re-fetching.
type SegmentationRow struct {
	MemPerPE int
	Segments int
	Total    time.Duration
	Err      string
}

// SegmentationAblation models the Frederic configuration under shrinking
// PE memory budgets (§4.3's motivation).
func SegmentationAblation(budgets []int) []SegmentationRow {
	if len(budgets) == 0 {
		budgets = []int{64 * 1024, 32 * 1024, 8 * 1024, 2 * 1024}
	}
	var rows []SegmentationRow
	for _, b := range budgets {
		cfg := maspar.DefaultConfig()
		cfg.MemPerPE = b
		m, err := maspar.New(cfg)
		if err != nil {
			rows = append(rows, SegmentationRow{MemPerPE: b, Err: err.Error()})
			continue
		}
		st, plan, err := core.ModelRun(m, 512, 512, core.FredericParams(), 4, maspar.RasterReadout)
		row := SegmentationRow{MemPerPE: b}
		if err != nil {
			row.Err = err.Error()
		} else {
			row.Segments = plan.Segments
			row.Total = st.Total()
		}
		rows = append(rows, row)
	}
	return rows
}

// SweepPoint is one sample of the template-size accuracy/cost sweep: the
// accuracy counterpart to Figure 4's pure-cost curve.
type SweepPoint struct {
	Window   int
	RMSE     float64       // barb RMSE vs truth
	PerPixel time.Duration // modeled SGI time per pixel (all hypotheses)
}

// TemplateAccuracySweep measures how tracking accuracy and modeled cost
// vary with z-template size on a hurricane scene — the trade-off implicit
// in the paper's choice of a 121×121 Frederic template.
func TemplateAccuracySweep(size int, seed int64, radii []int) ([]SweepPoint, error) {
	if len(radii) == 0 {
		radii = []int{1, 2, 4, 6}
	}
	scene := synth.Hurricane(size, size, seed)
	f0 := scene.Frame(0)
	f1 := scene.Frame(1)
	truth := scene.Truth(1)
	barbs := synth.Barbs(f0, 32, size/8, 4)
	sgi := model.DefaultSGI()
	var out []SweepPoint
	for _, r := range radii {
		p := core.Params{NS: 2, NZS: 3, NZT: r}
		res, err := core.TrackSequential(core.Monocular(f0, f1), p, core.Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Window:   2*r + 1,
			RMSE:     res.Flow.RMSEAt(truth, barbs),
			PerPixel: sgi.PixelTime(core.CountOps(p, 2)),
		})
	}
	return out, nil
}

// Package sequence provides multi-frame orchestration on top of the
// per-pair SMA tracker: pairwise tracking of whole image sequences (the
// Hurricane Luis 490-frame processing mode), particle trajectories
// through the resulting flow fields, and conversion of pixel
// displacements to physical wind speeds — the "cloud motion vectors ...
// used to estimate the wind field" of the paper's abstract.
package sequence

import (
	"fmt"
	"math"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/stream"
)

// Track runs the tracker over every consecutive frame pair of a monocular
// sequence, returning len(frames)−1 flow fields. The run is driven by the
// streaming pipeline (internal/stream), so each frame's surface fits are
// computed once and shared by its two pairs; results are bit-identical to
// independent per-pair core.TrackSequential runs. workers > 1 tracks up
// to that many pairs concurrently, each additionally striped across the
// same number of row workers.
func Track(frames []*grid.Grid, p core.Params, opt core.Options, workers int) ([]*grid.VectorField, error) {
	flows, _, err := TrackStats(frames, p, opt, workers)
	return flows, err
}

// TrackStats is Track plus the streaming pipeline's work counters —
// fits computed vs. reused, pairs tracked — for throughput reporting.
func TrackStats(frames []*grid.Grid, p core.Params, opt core.Options, workers int) ([]*grid.VectorField, stream.Stats, error) {
	if len(frames) < 2 {
		return nil, stream.Stats{}, fmt.Errorf("sequence: need at least 2 frames, got %d", len(frames))
	}
	if workers < 1 {
		workers = 1
	}
	results, st, err := stream.Run(stream.Grids(frames), stream.Config{
		Params:     p,
		Options:    opt,
		Workers:    workers,
		RowWorkers: workers,
	})
	if err != nil {
		return nil, st, fmt.Errorf("sequence: %w", err)
	}
	flows := make([]*grid.VectorField, len(results))
	for i, r := range results {
		flows[i] = r.Flow
	}
	return flows, st, nil
}

// Pos is a sub-pixel particle position.
type Pos struct{ X, Y float64 }

// Trajectories advects seed points through consecutive flow fields: the
// tracer-following mode behind the paper's wind-barb visualizations. The
// returned paths have len(flows)+1 positions each (seed included);
// particles that leave the image are clamped at the border.
func Trajectories(flows []*grid.VectorField, seeds []grid.Point) [][]Pos {
	paths := make([][]Pos, len(seeds))
	for i, s := range seeds {
		path := make([]Pos, 0, len(flows)+1)
		cur := Pos{X: float64(s.X), Y: float64(s.Y)}
		path = append(path, cur)
		for _, f := range flows {
			u := f.U.Bilinear(cur.X, cur.Y)
			v := f.V.Bilinear(cur.X, cur.Y)
			cur = clampPos(Pos{X: cur.X + float64(u), Y: cur.Y + float64(v)}, f)
			path = append(path, cur)
		}
		paths[i] = path
	}
	return paths
}

func clampPos(p Pos, f *grid.VectorField) Pos {
	w, h := f.Bounds()
	p.X = math.Max(0, math.Min(float64(w-1), p.X))
	p.Y = math.Max(0, math.Min(float64(h-1), p.Y))
	return p
}

// Geometry converts pixel displacements into physical winds. The paper's
// Frederic pixels "span approximately 1 sq-km" at image center with
// ~7.5-minute frame intervals; the GOES-9 rapid scans are ~1 minute.
type Geometry struct {
	KmPerPixel   float64 // ground sample distance
	SecondsPerDt float64 // frame interval
}

// WindMS converts a displacement in pixels/frame to meters/second.
func (g Geometry) WindMS(du, dv float64) (speed, direction float64) {
	if g.SecondsPerDt <= 0 {
		return 0, 0
	}
	mx := du * g.KmPerPixel * 1000 / g.SecondsPerDt
	my := dv * g.KmPerPixel * 1000 / g.SecondsPerDt
	speed = math.Hypot(mx, my)
	// Meteorological convention: direction the wind blows FROM, degrees
	// clockwise from north; image y grows southward.
	direction = math.Mod(math.Atan2(-mx, my)/math.Pi*180+360, 360)
	return speed, direction
}

// WindField converts a whole flow field to speed (m/s) and direction
// (degrees) rasters.
func (g Geometry) WindField(f *grid.VectorField) (speed, direction *grid.Grid) {
	w, h := f.Bounds()
	speed = grid.New(w, h)
	direction = grid.New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u, v := f.At(x, y)
			s, d := g.WindMS(float64(u), float64(v))
			speed.Set(x, y, float32(s))
			direction.Set(x, y, float32(d))
		}
	}
	return speed, direction
}

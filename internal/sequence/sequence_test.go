package sequence

import (
	"math"
	"testing"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/synth"
)

func uniformFrames(w, h, n int, seed int64, u, v float64) []*grid.Grid {
	s := &synth.Scene{W: w, H: h, Flow: synth.Uniform{U: u, V: v},
		Tex: synth.Hurricane(w, h, seed).Tex}
	frames := make([]*grid.Grid, n)
	for i := range frames {
		frames[i] = s.Frame(float64(i))
	}
	return frames
}

func TestTrackSequencePairCount(t *testing.T) {
	frames := uniformFrames(24, 24, 4, 3, 1, 0)
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	flows, err := Track(frames, p, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 3 {
		t.Fatalf("got %d flows, want 3", len(flows))
	}
	for i, f := range flows {
		if u, v := f.At(12, 12); u != 1 || v != 0 {
			t.Fatalf("flow %d at center = (%v,%v), want (1,0)", i, u, v)
		}
	}
}

func TestTrackSequenceValidation(t *testing.T) {
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	if _, err := Track([]*grid.Grid{grid.New(8, 8)}, p, core.Options{}, 1); err == nil {
		t.Fatal("single-frame sequence accepted")
	}
}

func TestTrackSequenceParallelMatches(t *testing.T) {
	frames := uniformFrames(20, 20, 3, 5, 1, 1)
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	a, err := Track(frames, p, core.Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Track(frames, p, core.Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("flow %d differs between serial and parallel sequence drivers", i)
		}
	}
}

// TestTrackStatsCaching proves the sequence driver inherits the streaming
// pipeline's prepared-surface caching: N frames cost exactly N surface
// fits, with 2(N−1)−N cache reuses.
func TestTrackStatsCaching(t *testing.T) {
	const n = 5
	frames := uniformFrames(20, 20, n, 11, 1, 0)
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	flows, st, err := TrackStats(frames, p, core.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != n-1 {
		t.Fatalf("got %d flows, want %d", len(flows), n-1)
	}
	if st.FitsComputed != n {
		t.Fatalf("FitsComputed = %d, want %d (one per frame)", st.FitsComputed, n)
	}
	if want := int64(2*(n-1) - n); st.FitsReused != want {
		t.Fatalf("FitsReused = %d, want %d", st.FitsReused, want)
	}
	if st.PairsTracked != n-1 {
		t.Fatalf("PairsTracked = %d, want %d", st.PairsTracked, n-1)
	}
}

// TestTrackMatchesPairwiseSequential pins the sequence driver to the
// pairwise baseline bit for bit, semi-fluid model included.
func TestTrackMatchesPairwiseSequential(t *testing.T) {
	frames := uniformFrames(18, 18, 4, 13, 1, 1)
	p := core.Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}
	for _, workers := range []int{1, 4} {
		flows, err := Track(frames, p, core.Options{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range flows {
			want, err := core.TrackSequential(core.Monocular(frames[i], frames[i+1]), p, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !flows[i].Equal(want.Flow) {
				t.Fatalf("workers=%d: pair %d differs from pairwise TrackSequential", workers, i)
			}
		}
	}
}

// TestTrackSizeMismatchError checks assembly errors surface with pair
// context rather than corrupting the stream.
func TestTrackSizeMismatchError(t *testing.T) {
	frames := uniformFrames(16, 16, 3, 15, 1, 0)
	frames[2] = grid.New(8, 8)
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	if _, err := Track(frames, p, core.Options{}, 1); err == nil {
		t.Fatal("mismatched frame sizes accepted")
	}
}

func TestTrajectoriesThroughUniformFlow(t *testing.T) {
	flows := make([]*grid.VectorField, 3)
	for i := range flows {
		f := grid.NewVectorField(32, 32)
		f.U.Fill(2)
		f.V.Fill(-1)
		flows[i] = f
	}
	paths := Trajectories(flows, []grid.Point{{X: 5, Y: 20}})
	if len(paths) != 1 || len(paths[0]) != 4 {
		t.Fatalf("path shape %d×%d", len(paths), len(paths[0]))
	}
	end := paths[0][3]
	if math.Abs(end.X-11) > 1e-6 || math.Abs(end.Y-17) > 1e-6 {
		t.Fatalf("end = %+v, want (11, 17)", end)
	}
}

func TestTrajectoriesClampAtBorder(t *testing.T) {
	f := grid.NewVectorField(16, 16)
	f.U.Fill(10)
	paths := Trajectories([]*grid.VectorField{f, f, f}, []grid.Point{{X: 8, Y: 8}})
	for _, p := range paths[0] {
		if p.X > 15 || p.X < 0 || p.Y > 15 || p.Y < 0 {
			t.Fatalf("trajectory escaped the image: %+v", p)
		}
	}
}

func TestWindMSConversion(t *testing.T) {
	// 1 px/frame at 1 km/px over 100 s = 10 m/s.
	g := Geometry{KmPerPixel: 1, SecondsPerDt: 100}
	speed, dir := g.WindMS(1, 0)
	if math.Abs(speed-10) > 1e-9 {
		t.Fatalf("speed = %v, want 10", speed)
	}
	// Eastward motion = wind FROM the west = 270°.
	if math.Abs(dir-270) > 1e-9 {
		t.Fatalf("direction = %v, want 270", dir)
	}
	// Northward (screen-up: dv < 0) motion = wind FROM the south = 180°.
	_, dir = g.WindMS(0, -1)
	if math.Abs(dir-180) > 1e-9 {
		t.Fatalf("direction = %v, want 180", dir)
	}
}

func TestWindMSZeroInterval(t *testing.T) {
	g := Geometry{KmPerPixel: 1}
	if s, _ := g.WindMS(1, 1); s != 0 {
		t.Fatalf("zero interval produced speed %v", s)
	}
}

func TestWindField(t *testing.T) {
	f := grid.NewVectorField(4, 4)
	f.U.Fill(1)
	g := Geometry{KmPerPixel: 4, SecondsPerDt: 450} // Frederic-like
	speed, dir := g.WindField(f)
	// 1 px/frame · 4 km / 450 s ≈ 8.9 m/s from the west.
	if v := speed.At(2, 2); math.Abs(float64(v)-8.888) > 0.01 {
		t.Fatalf("speed = %v", v)
	}
	if d := dir.At(2, 2); math.Abs(float64(d)-270) > 1e-3 {
		t.Fatalf("direction = %v", d)
	}
}

package core

import (
	"testing"

	"sma/internal/maspar"
	"sma/internal/synth"
)

func TestMasParEquivalenceUnderSnakeReadout(t *testing.T) {
	// The read-out scheme changes cost, never results.
	s := synth.Thunderstorm(24, 24, 73)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := contParams()
	m1 := maspar.MustNew(maspar.ScaledConfig(8, 8))
	m2 := maspar.MustNew(maspar.ScaledConfig(8, 8))
	a, err := TrackMasPar(m1, pair, p, Options{}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrackMasPar(m2, pair, p, Options{}, maspar.SnakeReadout)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Flow.Equal(b.Flow) {
		t.Fatal("read-out scheme changed results")
	}
	if m2.Cost.XNetShifts <= m1.Cost.XNetShifts {
		t.Fatalf("snake xnet %d not above raster %d at these sizes",
			m2.Cost.XNetShifts, m1.Cost.XNetShifts)
	}
}

func TestMasParStageBreakdownShape(t *testing.T) {
	// Table 2's qualitative shape: hypothesis matching dominates the
	// total; the semi-fluid mapping is next; surface fitting and
	// geometric variables are comparatively negligible.
	s := synth.Hurricane(32, 32, 79)
	pair := Monocular(s.Frame(0), s.Frame(1))
	m := maspar.MustNew(maspar.ScaledConfig(8, 8))
	res, err := TrackMasPar(m, pair, testParams(), Options{}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stages
	if st.HypMatch <= st.SemiMap {
		t.Fatalf("hypothesis matching %v not above semi-fluid mapping %v", st.HypMatch, st.SemiMap)
	}
	if st.SemiMap <= st.GeomVars {
		t.Fatalf("semi-fluid mapping %v not above geometric variables %v", st.SemiMap, st.GeomVars)
	}
	if st.Total() <= 0 {
		t.Fatal("zero total stage time")
	}
}

func TestMasParContinuousSkipsSemiMapStage(t *testing.T) {
	s := synth.Hurricane(24, 24, 83)
	pair := Monocular(s.Frame(0), s.Frame(1))
	m := maspar.MustNew(maspar.ScaledConfig(8, 8))
	res, err := TrackMasPar(m, pair, contParams(), Options{}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.SemiMap != 0 {
		t.Fatalf("continuous model spent %v in semi-fluid mapping", res.Stages.SemiMap)
	}
	if res.Plan.Segments != 1 {
		t.Fatalf("continuous model planned %d segments", res.Plan.Segments)
	}
}

func TestMasParGaussCountMatchesInventory(t *testing.T) {
	// Ledger eliminations = fitPasses·layers (surface fit) +
	// hypotheses·layers (motion solve).
	s := synth.Hurricane(16, 16, 89)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := contParams()
	m := maspar.MustNew(maspar.ScaledConfig(4, 4)) // 16 layers
	res, err := TrackMasPar(m, pair, p, Options{}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	layers := int64(res.Layers)
	want := 2*layers + int64(p.Hypotheses())*layers
	if m.Cost.GaussianElims != want {
		t.Fatalf("GaussianElims = %d, want %d", m.Cost.GaussianElims, want)
	}
}

func TestMasParMemoryInfeasibleConfig(t *testing.T) {
	// A machine with tiny PE memory must reject the run rather than
	// silently overflow.
	cfg := maspar.ScaledConfig(4, 4)
	cfg.MemPerPE = 512
	m := maspar.MustNew(cfg)
	s := synth.Hurricane(16, 16, 97)
	pair := Monocular(s.Frame(0), s.Frame(1))
	if _, err := TrackMasPar(m, pair, testParams(), Options{}, maspar.RasterReadout); err == nil {
		t.Fatal("infeasible memory configuration accepted")
	}
}

func TestMasParSegmentedRunStillCorrect(t *testing.T) {
	// Squeeze PE memory so the template-mapping store must be segmented;
	// results must not change.
	s := synth.Hurricane(24, 24, 101)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := testParams()

	big := maspar.MustNew(maspar.ScaledConfig(8, 8))
	a, err := TrackMasPar(big, pair, p, Options{}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	if a.Plan.Segments != 1 {
		t.Fatalf("baseline run unexpectedly segmented: %+v", a.Plan)
	}

	cfg := maspar.ScaledConfig(8, 8)
	cfg.MemPerPE = 1600 // forces Z < full search width
	small := maspar.MustNew(cfg)
	b, err := TrackMasPar(small, pair, p, Options{}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	if b.Plan.Segments < 2 {
		t.Fatalf("squeezed run not segmented: %+v", b.Plan)
	}
	if !a.Flow.Equal(b.Flow) {
		t.Fatal("segmentation changed tracking results")
	}
	if b.Stages.Total() <= a.Stages.Total() {
		t.Fatalf("segmented run %v not slower than unsegmented %v",
			b.Stages.Total(), a.Stages.Total())
	}
}

func TestMasParKeepMotion(t *testing.T) {
	s := synth.Hurricane(16, 16, 103)
	pair := Monocular(s.Frame(0), s.Frame(1))
	m := maspar.MustNew(maspar.ScaledConfig(4, 4))
	res, err := TrackMasPar(m, pair, contParams(), Options{KeepMotion: true}, maspar.RasterReadout)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Motion) != 6 {
		t.Fatalf("Motion has %d grids, want 6", len(res.Motion))
	}
}

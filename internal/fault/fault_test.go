package fault

import (
	"errors"
	"io"
	"math"
	"sort"
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/stream"
	"sma/internal/synth"
)

func testFrames(n, size int) []*grid.Grid {
	scene := synth.Hurricane(size, size, 7)
	frames := make([]*grid.Grid, n)
	for i := range frames {
		frames[i] = scene.Frame(float64(i))
	}
	return frames
}

func drain(t *testing.T, src stream.Source) (good []int, errs map[int]error) {
	t.Helper()
	errs = make(map[int]error)
	idx := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return good, errs
		}
		if err != nil {
			errs[idx] = err
			if sk, ok := src.(stream.Skipper); ok {
				sk.SkipFrame()
			} else {
				t.Fatal("faulted source lost Skipper")
			}
		} else {
			good = append(good, idx)
		}
		idx++
	}
}

func TestSourcePersistentIOError(t *testing.T) {
	frames := testFrames(5, 8)
	plan := NewPlan(1, FrameFault{Frame: 2, Kind: IOError})
	src := WrapSource(stream.Grids(frames), plan)
	good, errs := drain(t, src)
	if want := []int{0, 1, 3, 4}; len(good) != 4 || good[2] != 3 {
		t.Fatalf("delivered frames %v, want %v", good, want)
	}
	err := errs[2]
	if !errors.Is(err, ErrInjected) {
		t.Errorf("frame 2 error %v does not wrap ErrInjected", err)
	}
	if stream.Transient(err) {
		t.Errorf("persistent fault classified transient: %v", err)
	}
}

func TestSourceTransientClearsOnRetry(t *testing.T) {
	frames := testFrames(3, 8)
	plan := NewPlan(1, FrameFault{Frame: 1, Kind: IOError, Attempts: 2})
	src := WrapSource(stream.Grids(frames), plan)
	if _, err := src.Next(); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := src.Next()
		if err == nil {
			t.Fatalf("attempt %d delivered; want transient failure", attempt)
		}
		if !stream.Transient(err) {
			t.Fatalf("attempt %d error %v is not transient", attempt, err)
		}
	}
	f, err := src.Next()
	if err != nil {
		t.Fatalf("attempt 3 still failing: %v", err)
	}
	if !f.I.Equal(frames[1]) {
		t.Error("recovered frame differs from the clean one")
	}
}

func TestSourceDamageIsDeterministicAndIsolated(t *testing.T) {
	frames := testFrames(3, 16)
	mk := func() *Source {
		return WrapSource(stream.Grids(frames),
			NewPlan(42, FrameFault{Frame: 1, Kind: Damage, BadPixels: 4, DeadLines: 2}))
	}
	s1, s2 := mk(), mk()
	var d1, d2 core.Frame
	for i := 0; i < 2; i++ {
		f1, err1 := s1.Next()
		f2, err2 := s2.Next()
		if err1 != nil || err2 != nil {
			t.Fatalf("frame %d: %v / %v", i, err1, err2)
		}
		d1, d2 = f1, f2
	}
	// NaN compares unequal to itself, so compare raw bit patterns.
	for i := range d1.I.Data {
		if math.Float32bits(d1.I.Data[i]) != math.Float32bits(d2.I.Data[i]) {
			t.Fatalf("same seed produced different damage at sample %d", i)
		}
	}
	r := grid.ScanDamage(d1.I)
	if r.BadPixels == 0 || r.DeadLines == 0 {
		t.Errorf("damage not injected: %+v", r)
	}
	if d1.Z != d1.I {
		t.Error("monocular aliasing lost on damaged frame")
	}
	if r := grid.ScanDamage(frames[1]); r.BadPixels > 0 || r.DeadLines > 0 {
		t.Error("damage mutated the shared clean frame")
	}
}

func TestRandomPlanDeterministicAndSized(t *testing.T) {
	cfg := RandomConfig{FailFrames: 2, FlakyFrames: 1, DamageFrames: 2, Latency: time.Millisecond}
	p1 := RandomPlan(9, 20, cfg)
	p2 := RandomPlan(9, 20, cfg)
	f1, f2 := sortedFaults(p1), sortedFaults(p2)
	if len(f1) != 5 {
		t.Fatalf("plan has %d faults, want 5", len(f1))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed diverged: %+v vs %+v", f1[i], f2[i])
		}
	}
	if p3 := RandomPlan(10, 20, cfg); len(sortedFaults(p3)) == 5 {
		same := true
		for i, f := range sortedFaults(p3) {
			if f != f1[i] {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical plans")
		}
	}
}

func TestExpect(t *testing.T) {
	plan := NewPlan(1,
		FrameFault{Frame: 2, Kind: IOError},
		FrameFault{Frame: 3, Kind: IOError, Attempts: 2},
		FrameFault{Frame: 5, Kind: Damage},
		FrameFault{Frame: 6, Kind: Damage},
	)
	e := plan.Expect(10)
	if e.Retries != 2 {
		t.Errorf("Retries = %d, want 2", e.Retries)
	}
	if e.FramesSkipped != 3 {
		t.Errorf("FramesSkipped = %d, want 3 (frames 2, 5, 6)", e.FramesSkipped)
	}
	if e.Gaps != 2 {
		t.Errorf("Gaps = %d, want 2 ({2} and {5,6})", e.Gaps)
	}
	// Pairs touching frames 2, 5 or 6: pairs 1,2,4,5,6 — five skipped.
	if e.PairsSkipped != 5 {
		t.Errorf("PairsSkipped = %d, want 5", e.PairsSkipped)
	}
	if want := []int{0, 3, 7, 8}; len(e.SurvivingPairs) != len(want) {
		t.Errorf("SurvivingPairs = %v, want %v", e.SurvivingPairs, want)
	} else {
		for i, p := range want {
			if e.SurvivingPairs[i] != p {
				t.Errorf("SurvivingPairs = %v, want %v", e.SurvivingPairs, want)
				break
			}
		}
	}
}

// sortedFaults returns p's schedule sorted by frame index.
func sortedFaults(p *Plan) []FrameFault {
	out := make([]FrameFault, 0, len(p.faults))
	for _, f := range p.faults {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Frame < out[j].Frame })
	return out
}

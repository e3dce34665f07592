package stream

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/synth"
)

func sceneFrames(t *testing.T, scene *synth.Scene, n int) []*grid.Grid {
	t.Helper()
	frames := make([]*grid.Grid, n)
	for i := range frames {
		frames[i] = scene.Frame(float64(i))
	}
	return frames
}

// pairwiseBaseline is the paper's correctness reference: independent
// TrackSequential runs over every adjacent pair.
func pairwiseBaseline(t *testing.T, frames []*grid.Grid, p core.Params, opt core.Options) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(frames)-1)
	for i := 0; i+1 < len(frames); i++ {
		res, err := core.TrackSequential(core.Monocular(frames[i], frames[i+1]), p, opt)
		if err != nil {
			t.Fatalf("baseline pair %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

func requireBitIdentical(t *testing.T, label string, got, want []*core.Result, keepMotion bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !got[i].Flow.Equal(want[i].Flow) {
			t.Fatalf("%s: pair %d flow differs from pairwise TrackSequential", label, i)
		}
		if !got[i].Err.Equal(want[i].Err) {
			t.Fatalf("%s: pair %d residual field differs", label, i)
		}
		if keepMotion {
			for m := range want[i].Motion {
				if !got[i].Motion[m].Equal(want[i].Motion[m]) {
					t.Fatalf("%s: pair %d motion parameter %d differs", label, i, m)
				}
			}
		}
	}
}

// TestStreamEquivalenceMatrix is the enforcement half of the streaming
// claim: the pipeline's output is bit-identical to pairwise
// TrackSequential at every worker count {1, 4, GOMAXPROCS} and cache size
// {1, 2, full}, semi-fluid model active. check.sh runs this under -race.
func TestStreamEquivalenceMatrix(t *testing.T) {
	const n = 5
	frames := sceneFrames(t, synth.Hurricane(20, 20, 61), n)
	p := core.Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}
	opt := core.Options{KeepMotion: true}
	want := pairwiseBaseline(t, frames, p, opt)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, cacheSize := range []int{1, 2, n} {
			label := fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize)
			got, st, err := Run(Grids(frames), Config{
				Params: p, Options: opt, Workers: workers, CacheSize: cacheSize,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requireBitIdentical(t, label, got, want, true)
			if st.FitsComputed != n {
				t.Fatalf("%s: %d fits computed, want %d (one per frame)", label, st.FitsComputed, n)
			}
		}
	}
}

// TestStreamRowWorkersEquivalence covers the within-pair tile-parallel mode
// and the continuous model (NSS = 0, nil SemiMap) in one sweep.
func TestStreamRowWorkersEquivalence(t *testing.T) {
	const n = 4
	frames := sceneFrames(t, synth.Thunderstorm(20, 20, 9), n)
	p := core.Params{NS: 2, NZS: 2, NZT: 3}
	want := pairwiseBaseline(t, frames, p, core.Options{})
	for _, rw := range []int{1, 4} {
		got, _, err := Run(Grids(frames), Config{
			Params: p, Workers: 2, RowWorkers: rw, CacheSize: 1, Window: 1,
		})
		if err != nil {
			t.Fatalf("rowWorkers=%d: %v", rw, err)
		}
		requireBitIdentical(t, fmt.Sprintf("rowWorkers=%d", rw), got, want, false)
	}
}

// TestStreamPyramidEquivalence covers the coarse-to-fine mode end to end:
// a streaming run with Options.Pyramid set must be bit-identical to
// pairwise pyramid tracking over independently prepared pairs, at several
// worker counts and with the frame cache forcing coarse-chain reuse. The
// invalid semi-fluid + pyramid combination must be rejected up front.
func TestStreamPyramidEquivalence(t *testing.T) {
	const n = 4
	frames := sceneFrames(t, synth.Hurricane(32, 32, 77), n)
	p := core.Params{NS: 2, NZS: 3, NZT: 3}
	opt := core.Options{Pyramid: core.PyramidOptions{Levels: 2}}
	want := make([]*core.Result, n-1)
	for i := 0; i+1 < n; i++ {
		prep, err := core.PreparePyramid(core.Monocular(frames[i], frames[i+1]), p, 2)
		if err != nil {
			t.Fatalf("baseline pair %d: %v", i, err)
		}
		res, _, err := core.TrackPyramidPreparedCtx(nil, prep, opt, 1)
		if err != nil {
			t.Fatalf("baseline pair %d: %v", i, err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 3} {
		label := fmt.Sprintf("pyramid/workers=%d", workers)
		got, st, err := Run(Grids(frames), Config{
			Params: p, Options: opt, Workers: workers, CacheSize: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireBitIdentical(t, label, got, want, false)
		if st.FitsComputed != n {
			t.Fatalf("%s: %d fits computed, want %d (coarse chains ride the cache)",
				label, st.FitsComputed, n)
		}
	}
	semi := core.Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}
	if _, _, err := Run(Grids(frames), Config{Params: semi, Options: opt}); err == nil {
		t.Fatal("semi-fluid pyramid stream accepted")
	}
}

// TestStreamCounters pins the caching arithmetic the tentpole promises:
// N frames cost exactly N surface fits, the 2(N−1) per-pair lookups reuse
// the cache 2(N−1)−N times, and an undersized LRU evicts N−cap entries.
func TestStreamCounters(t *testing.T) {
	const n = 6
	frames := sceneFrames(t, synth.Hurricane(16, 16, 3), n)
	p := core.Params{NS: 2, NZS: 1, NZT: 2}
	for _, cacheSize := range []int{1, 2, 3, n} {
		_, st, err := Run(Grids(frames), Config{Params: p, Workers: 2, CacheSize: cacheSize})
		if err != nil {
			t.Fatalf("cache=%d: %v", cacheSize, err)
		}
		if st.FramesIn != n {
			t.Fatalf("cache=%d: FramesIn = %d, want %d", cacheSize, st.FramesIn, n)
		}
		if st.FitsComputed != n {
			t.Fatalf("cache=%d: FitsComputed = %d, want %d (each frame fitted exactly once)", cacheSize, st.FitsComputed, n)
		}
		if want := int64(2*(n-1) - n); st.FitsReused != want {
			t.Fatalf("cache=%d: FitsReused = %d, want %d", cacheSize, st.FitsReused, want)
		}
		if st.PairsTracked != n-1 {
			t.Fatalf("cache=%d: PairsTracked = %d, want %d", cacheSize, st.PairsTracked, n-1)
		}
		wantEvict := int64(0)
		if cacheSize < n {
			wantEvict = int64(n - cacheSize)
		}
		if st.Evictions != wantEvict {
			t.Fatalf("cache=%d: Evictions = %d, want %d", cacheSize, st.Evictions, wantEvict)
		}
	}
}

// TestStreamEmitOrder verifies in-order delivery even when many workers
// race through a tiny window.
func TestStreamEmitOrder(t *testing.T) {
	const n = 9
	frames := sceneFrames(t, synth.Hurricane(14, 14, 5), n)
	p := core.Params{NS: 1, NZS: 1, NZT: 1}
	var order []int
	st, err := Stream(Grids(frames), Config{Params: p, Workers: runtime.GOMAXPROCS(0), Window: 1},
		func(i int, res *core.Result) error {
			if res == nil || res.Flow == nil {
				return fmt.Errorf("pair %d: nil result", i)
			}
			order = append(order, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != n-1 || st.PairsTracked != n-1 {
		t.Fatalf("delivered %d pairs (stats %d), want %d", len(order), st.PairsTracked, n-1)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order %v: position %d is pair %d", order, i, got)
		}
	}
}

type errSource struct {
	frames []*grid.Grid
	failAt int
	i      int
}

func (s *errSource) Next() (core.Frame, error) {
	if s.i == s.failAt {
		return core.Frame{}, fmt.Errorf("synthetic source failure")
	}
	if s.i >= len(s.frames) {
		return core.Frame{}, io.EOF
	}
	f := core.MonocularFrame(s.frames[s.i])
	s.i++
	return f, nil
}

func TestStreamErrors(t *testing.T) {
	frames := sceneFrames(t, synth.Hurricane(14, 14, 7), 5)
	p := core.Params{NS: 1, NZS: 1, NZT: 1}
	cfg := Config{Params: p, Workers: 2}

	if _, _, err := Run(nil, cfg); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := Stream(Grids(frames), cfg, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
	if _, _, err := Run(Grids(frames[:1]), cfg); err == nil {
		t.Fatal("single-frame stream accepted")
	}
	if _, _, err := Run(Grids(frames), Config{Params: p, CacheSize: -1}); err == nil {
		t.Fatal("negative cache size accepted")
	}
	if _, _, err := Run(Grids(frames), Config{Params: p, Window: -1}); err == nil {
		t.Fatal("negative window accepted")
	}
	if _, _, err := Run(Grids(frames), Config{Params: core.Params{}}); err == nil {
		t.Fatal("invalid params accepted")
	}

	// Mid-stream source failure propagates and terminates.
	if _, _, err := Run(&errSource{frames: frames, failAt: 3}, cfg); err == nil {
		t.Fatal("source failure not propagated")
	}

	// Mismatched frame sizes are a pair-assembly error.
	bad := []*grid.Grid{frames[0], grid.New(10, 10)}
	if _, _, err := Run(Grids(bad), cfg); err == nil {
		t.Fatal("mismatched frame sizes accepted")
	}

	// An emit error cancels the run without deadlocking.
	wantErr := fmt.Errorf("downstream full")
	_, err := Stream(Grids(frames), cfg, func(i int, _ *core.Result) error {
		if i >= 1 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("emit error = %v, want %v", err, wantErr)
	}
}

func TestSourcesExhaustToEOF(t *testing.T) {
	g := grid.New(4, 4)
	for _, src := range []Source{
		Grids([]*grid.Grid{g}),
		Func(1, func(int) (core.Frame, error) { return core.MonocularFrame(g), nil }),
		Paths([]string{}, nil),
	} {
		for i := 0; i < 3; i++ {
			if _, err := src.Next(); err == io.EOF {
				goto eofOK
			}
		}
		t.Fatal("source never returned io.EOF")
	eofOK:
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("exhausted source returned %v, want io.EOF", err)
		}
	}
}

func TestPathsSourceReadsLazily(t *testing.T) {
	reads := 0
	src := Paths([]string{"a", "b"}, func(path string) (*grid.Grid, error) {
		reads++
		if path == "b" {
			return nil, fmt.Errorf("unreadable")
		}
		return grid.New(4, 4), nil
	})
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("read error not surfaced")
	}
	if reads != 2 {
		t.Fatalf("reads = %d, want 2", reads)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	prep := &core.FramePrep{}
	c := newLRU(2)
	if ev := c.put(0, prep); ev != 0 {
		t.Fatalf("put(0) evicted %d", ev)
	}
	if ev := c.put(1, prep); ev != 0 {
		t.Fatalf("put(1) evicted %d", ev)
	}
	// Touch 0 so 1 becomes least recently used.
	if _, ok := c.get(0); !ok {
		t.Fatal("get(0) missed")
	}
	if ev := c.put(2, prep); ev != 1 {
		t.Fatalf("put(2) evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(1); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := c.get(0); !ok {
		t.Fatal("LRU dropped the recently touched entry")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Refreshing an existing key neither grows nor evicts.
	if ev := c.put(2, prep); ev != 0 || c.len() != 2 {
		t.Fatalf("refresh put evicted %d, len %d", ev, c.len())
	}
}

// len reports the current entry count.
func (c *lru) len() int { return len(c.preps) }

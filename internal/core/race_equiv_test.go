package core

import (
	"runtime"
	"testing"

	"sma/internal/maspar"
	"sma/internal/synth"
)

// TestParallelDriversBitIdenticalUnderRace is the enforcement half of the
// paper's equivalence claim ("the parallel algorithm obtained the same
// result as the sequential implementation"): both goroutine drivers —
// TrackPreparedParallel's block-stealing workers and TrackMasPar's
// HostWorkers — must be bit-identical to TrackSequential for every
// worker count, including GOMAXPROCS. The suite runs under `make race`, so any
// unsynchronized write the smavet goroutinecapture check missed is also
// caught dynamically here.
func TestParallelDriversBitIdenticalUnderRace(t *testing.T) {
	s := synth.Hurricane(24, 24, 61)
	pair := Monocular(s.Frame(0), s.Frame(1))
	p := testParams() // semi-fluid: exercises the SemiMap path too
	seq, err := TrackSequential(pair, p, Options{KeepMotion: true})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Prepare(pair, p)
	if err != nil {
		t.Fatal(err)
	}
	sm := BuildSemiMap(prep)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		par := TrackPreparedParallel(prep, sm, Options{KeepMotion: true}, workers)
		if !par.Flow.Equal(seq.Flow) || !par.Err.Equal(seq.Err) {
			t.Fatalf("TrackPreparedParallel(workers=%d) differs from TrackSequential", workers)
		}
		for i := range par.Motion {
			if !par.Motion[i].Equal(seq.Motion[i]) {
				t.Fatalf("TrackPreparedParallel(workers=%d): motion parameter %d differs", workers, i)
			}
		}

		m := maspar.MustNew(maspar.ScaledConfig(4, 4))
		mas, err := TrackMasPar(m, pair, p, Options{HostWorkers: workers}, maspar.RasterReadout)
		if err != nil {
			t.Fatal(err)
		}
		if !mas.Flow.Equal(seq.Flow) || !mas.Err.Equal(seq.Err) {
			t.Fatalf("TrackMasPar(HostWorkers=%d) differs from TrackSequential", workers)
		}
	}
}

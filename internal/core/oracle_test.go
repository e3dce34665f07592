package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sma/internal/grid"
	"sma/internal/la"
	"sma/internal/maspar"
	"sma/internal/synth"
)

// The search's differential oracle: the paper's one validation claim, "the
// parallel algorithm obtained the same result as the sequential
// implementation", for every search entry point. One table of fixed cases
// (oracleRows, screenExtras) and a seeded generator of random ones
// (randomCase) feed one set of search surfaces, each of which must
// reproduce its oracle bit for bit: TrackPreparedReference and its float64
// winners for the exact search, TrackSummedReference for the summed one.
// oracleTable assigns the surfaces to the named tests' subtests so that no
// (case, surface) pair runs twice, and each case's oracle is computed once.

// oracleRows are the fixed inputs with their continuous-model parameters;
// a case is a row × {Fcont, Fsemi (NSS 1, NST 2)} × {least squares,
// Robust}. They are border-dominated grids (every template crosses the
// image edge), multi-block images with ragged edge blocks, the NaN-pixel
// scene, a flat surface whose singular A takes the ridge path, rectangular
// overrides, and the early-exit and block-shape tests' scenes. In the nan
// scene the anchor scores ε = NaN at 72 pixels where another hypothesis is
// finite: the reference keeps the NaN anchor, and a search that seeded its
// incumbent with ε = +Inf would not.
var oracleRows = map[string]struct {
	pair func() Pair
	cont Params
}{
	"3x3":                {func() Pair { return hurricanePair(3, 3, 1) }, contParams()},
	"1x17":               {func() Pair { return hurricanePair(1, 17, 2) }, contParams()},
	"17x1":               {func() Pair { return hurricanePair(17, 1, 3) }, contParams()},
	"9x7":                {func() Pair { return hurricanePair(9, 7, 4) }, contParams()},
	"hurricane-64":       {func() Pair { return hurricanePair(64, 64, 5) }, Params{NS: 2, NZS: 1, NZT: 2}},
	"nan":                {func() Pair { return nanPair(24, 24, 3) }, contParams()},
	"flat-ridge":         {func() Pair { return flatPair(20, 12) }, contParams()},
	"rect-x":             {func() Pair { return hurricanePair(23, 19, 6) }, Params{NS: 2, NZS: 2, NZT: 2, NZTX: 4, NZSX: 3}},
	"rect-y":             {func() Pair { return hurricanePair(19, 23, 7) }, Params{NS: 2, NZS: 1, NZT: 3, NZTY: 1, NZSY: 2}},
	"hurricane":          {func() Pair { return hurricanePair(20, 20, 211) }, contParams()},
	"thunderstorm":       {func() Pair { return thunderstormPair(20, 20, 211) }, contParams()},
	"multi-block-130x70": {func() Pair { return hurricanePair(130, 70, 7) }, Params{NS: 2, NZS: 1, NZT: 2}},
	"hurricane-150x70":   {func() Pair { return hurricanePair(150, 70, 9) }, Params{NS: 2, NZS: 2, NZT: 3}},
	"thunderstorm-48":    {func() Pair { return thunderstormPair(48, 48, 17) }, contParams()},
	"seed=31":            {func() Pair { return hurricanePair(18, 18, 31) }, contParams()},
	"seed=32":            {func() Pair { return hurricanePair(18, 18, 32) }, contParams()},
	"seed=33":            {func() Pair { return hurricanePair(18, 18, 33) }, contParams()},
	"thunderstorm-18":    {func() Pair { return thunderstormPair(18, 18, 44) }, contParams()},
	"hurricane-22":       {func() Pair { return hurricanePair(22, 22, 93) }, contParams()},
}

// blockRows are the block kernel's rows.
var blockRows = []string{"3x3", "1x17", "17x1", "9x7", "hurricane-64", "nan", "flat-ridge", "rect-x", "rect-y"}

func hurricanePair(w, h int, seed int64) Pair {
	s := synth.Hurricane(w, h, seed)
	return Monocular(s.Frame(0), s.Frame(1))
}

func thunderstormPair(w, h int, seed int64) Pair {
	s := synth.Thunderstorm(w, h, seed)
	return Monocular(s.Frame(0), s.Frame(1))
}

// nanPair is a hurricane pair whose frame 1 has a NaN centre pixel.
func nanPair(w, h int, seed int64) Pair {
	s := synth.Hurricane(w, h, seed)
	f1 := s.Frame(1)
	f1.Set(w/2, h/2, float32(math.NaN()))
	return Monocular(s.Frame(0), f1)
}

// flatPair is a featureless pair: zero slopes leave A singular.
func flatPair(w, h int) Pair {
	flat := grid.New(w, h)
	flat.Fill(100)
	return Monocular(flat, flat.Clone())
}

// oracleCase is one input of the oracle.
type oracleCase struct {
	name   string
	pair   func() Pair
	p      Params
	robust bool
}

func (c oracleCase) opt(keepMotion bool) Options {
	return Options{Robust: c.robust, KeepMotion: keepMotion}
}

// rowCase is the row's case "row/semi=…/robust=…".
func rowCase(row string, semi, robust bool) oracleCase {
	r := oracleRows[row]
	p := r.cont
	if semi {
		p.NSS, p.NST = 1, 2
	}
	return oracleCase{fmt.Sprintf("%s/semi=%v/robust=%v", row, semi, robust), r.pair, p, robust}
}

// rowCases is every case of the rows, row by row.
func rowCases(rows ...string) (cases []oracleCase) {
	for _, row := range rows {
		for _, semi := range []bool{false, true} {
			cases = append(cases, rowCase(row, semi, false), rowCase(row, semi, true))
		}
	}
	return cases
}

// randomCase draws a case from seed: a hurricane, thunderstorm, NaN-pixel
// or flat scene on a tiny, usually ragged grid (1–24 pixels a side); NS
// 1–2, NZT 1–4 and NZS 1–3 with per-axis overrides half the time; Fsemi
// (NSS and NST 1–2) half the time; and Robust a quarter of the time.
func randomCase(seed int64) oracleCase {
	rng := rand.New(rand.NewSource(seed))
	w, h := 1+rng.Intn(24), 1+rng.Intn(24)
	p := Params{NS: 1 + rng.Intn(2), NZT: 1 + rng.Intn(4), NZS: 1 + rng.Intn(3)}
	if rng.Intn(2) == 0 {
		p.NZTX, p.NZTY, p.NZSX, p.NZSY = rng.Intn(5), rng.Intn(5), rng.Intn(4), rng.Intn(4)
	}
	if rng.Intn(2) == 0 {
		p.NSS, p.NST = 1+rng.Intn(2), 1+rng.Intn(2)
	}
	robust := rng.Intn(4) == 0
	pair := []func() Pair{
		func() Pair { return hurricanePair(w, h, seed) },
		func() Pair { return thunderstormPair(w, h, seed) },
		func() Pair { return nanPair(w, h, seed) },
		func() Pair { return flatPair(w, h) },
	}[rng.Intn(4)]
	return oracleCase{fmt.Sprintf("random-%d", seed), pair, p, robust}
}

// oracle is a case's prepared input and, computed on first use, its
// expected outputs.
type oracle struct {
	oracleCase
	pair      Pair
	prep      *Prepared
	sm        *SemiMap
	wins      []winner        // float64 winners, δ included, in raster order
	ref       *Result         // TrackPreparedReference with KeepMotion
	summed    *Result         // TrackSummedReference with KeepMotion,
	summedErr error           // or its refusal
	done      map[string]bool // the surfaces checked
}

// winner is a pixel's incumbent with its θ.
type winner struct {
	incumbent
	theta la.Vec6
}

// oracles caches the oracles by case name.
var oracles = map[string]*oracle{}

func oracleFor(t *testing.T, c oracleCase) *oracle {
	t.Helper()
	if oracles[c.name] == nil {
		oracles[c.name] = newOracle(t, c)
	}
	return oracles[c.name]
}

func newOracle(t *testing.T, c oracleCase) *oracle {
	t.Helper()
	o := &oracle{oracleCase: c, pair: c.pair(), done: map[string]bool{}}
	var err error
	if o.prep, err = Prepare(o.pair, c.p); err != nil {
		t.Fatal(err)
	}
	o.sm = BuildSemiMap(o.prep)
	return o
}

// referenceRun is TrackPreparedReference with KeepMotion, keeping each
// pixel's float64 winner too.
func (o *oracle) referenceRun() *Result {
	if o.ref == nil {
		o.ref = newResult(o.prep.W, o.prep.H, true)
		o.wins = make([]winner, o.prep.W*o.prep.H)
		tr := newTracker(o.prep, o.sm, o.opt(true))
		for y := 0; y < o.prep.H; y++ {
			for x := 0; x < o.prep.W; x++ {
				hx, hy, eps, theta := tr.trackPixelReference(x, y)
				o.wins[y*o.prep.W+x] = winner{incumbent{hx: hx, hy: hy, eps: eps}, theta}
				o.ref.set(x, y, hx, hy, eps, theta)
			}
		}
	}
	return o.ref
}

// summedRun is TrackSummedReference with KeepMotion.
func (o *oracle) summedRun() (*Result, error) {
	if o.summed == nil && o.summedErr == nil {
		opt := o.opt(true)
		opt.Pyramid.Levels = 2
		o.summed, o.summedErr = TrackSummedReference(o.prep, opt)
	}
	return o.summed, o.summedErr
}

// searchSurface is one search entry point, checked against a case's
// oracle.
type searchSurface struct {
	name  string
	check func(t *testing.T, o *oracle)
}

func checkSurfaces(t *testing.T, o *oracle, surfaces ...searchSurface) {
	t.Helper()
	for _, s := range surfaces {
		o.done[s.name] = true
		s.check(t, o)
	}
}

var (
	// preparedSurface is TrackPrepared with KeepMotion off and on.
	preparedSurface = searchSurface{"TrackPrepared", func(t *testing.T, o *oracle) {
		ref := o.referenceRun()
		requireSameBits(t, "TrackPrepared", TrackPrepared(o.prep, o.sm, o.opt(false)), &Result{Flow: ref.Flow, Err: ref.Err})
		requireSameBits(t, "TrackPrepared(KeepMotion)", TrackPrepared(o.prep, o.sm, o.opt(true)), ref)
	}}

	// winnersSurface is the winners on the default blocks.
	winnersSurface = winnersOn(blockSide, false)

	// tiedWinnersSurface is winnersSurface on a case whose screen must drop
	// ties (level 3).
	tiedWinnersSurface = searchSurface{"winners with ties", func(t *testing.T, o *oracle) {
		if o.requireWinners(t, "winners", o.opt(false), blockSide, false).tied == 0 {
			t.Fatal("no pair dropped as a tie")
		}
	}}

	// screenOffSurface is the winners with every screen level off, which
	// must eliminate nothing.
	screenOffSurface = searchSurface{"screen off", func(t *testing.T, o *oracle) {
		opt := o.opt(false)
		opt.noScreen = true
		if c := o.requireWinners(t, "screen off", opt, blockSide, false); c != (screenCounts{}) {
			t.Fatalf("screen off: eliminated %+v", c)
		}
	}}

	// sequentialSurface is TrackSequential from the unprepared pair.
	sequentialSurface = searchSurface{"TrackSequential", func(t *testing.T, o *oracle) {
		got, err := TrackSequential(o.pair, o.p, o.opt(true))
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "TrackSequential", got, o.referenceRun())
	}}

	// pyramidOffSurface is the pyramid entry point with the option off: the
	// exact search, exhaustive. The entry point takes Fcont only.
	pyramidOffSurface = searchSurface{"pyramid off", func(t *testing.T, o *oracle) {
		if o.p.SemiFluid() {
			return
		}
		opt := o.opt(true)
		opt.Pyramid.Levels = 1
		got, st, err := TrackPyramidPreparedCtx(context.Background(), o.prep, opt, 2)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, "pyramid off", got, o.referenceRun())
		requireExhaustive(t, "pyramid off", o.prep, st)
	}}

	// masParSurface is TrackMasPar at HostWorkers 1 and 4 on a machine the
	// table's images fit: the same bits and the same cost ledger, since
	// host parallelism is an execution detail, not a machine behaviour.
	masParSurface = searchSurface{"TrackMasPar", func(t *testing.T, o *oracle) {
		var ledger [2]maspar.Cost
		for i, hw := range []int{1, 4} {
			m := maspar.MustNew(maspar.ScaledConfig(8, 8))
			opt := o.opt(true)
			opt.HostWorkers = hw
			got, err := TrackMasPar(m, o.pair, o.p, opt, maspar.RasterReadout)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, fmt.Sprintf("TrackMasPar(HostWorkers=%d)", hw), got.Result, o.referenceRun())
			ledger[i] = m.Cost
		}
		if ledger[0] != ledger[1] {
			t.Fatalf("HostWorkers 1 and 4 charge %+v and %+v", ledger[0], ledger[1])
		}
	}}

	// summedSurface is the summed-window search with KeepMotion at 1, 3 and
	// 8 workers and without it at one: the oracle's bytes (or its refusal
	// of non-finite geometry) and exhaustive PyramidStats at every count.
	// The option takes Fcont only, and with Robust runs the exact search
	// (TestSummedRobustRunsBlockKernel).
	summedSurface = searchSurface{"summed", func(t *testing.T, o *oracle) {
		if o.p.SemiFluid() || o.robust {
			return
		}
		want, wantErr := o.summedRun()
		for _, run := range []struct {
			keep    bool
			workers int
		}{{false, 1}, {true, 1}, {true, 3}, {true, 8}} {
			what := fmt.Sprintf("summed, KeepMotion=%v, workers=%d", run.keep, run.workers)
			opt := o.opt(run.keep)
			opt.Pyramid.Levels = 2
			got, st, err := TrackPyramidPreparedCtx(context.Background(), o.prep, opt, run.workers)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, its oracle's %v", what, err, wantErr)
			}
			if err != nil {
				continue
			}
			if run.keep {
				requireSameBits(t, what, got, want)
			} else {
				requireSameBits(t, what, got, &Result{Flow: want.Flow, Err: want.Err})
			}
			requireExhaustive(t, what, o.prep, st)
		}
	}}
)

// blocksSurface is TrackPreparedParallelCtx with KeepMotion on bw×bh
// blocks (0: the default shape) at the worker count.
func blocksSurface(bw, bh, workers int) searchSurface {
	name := fmt.Sprintf("blocks %dx%d, workers=%d", bw, bh, workers)
	return searchSurface{name, func(t *testing.T, o *oracle) {
		opt := o.opt(true)
		opt.blockW, opt.blockH = bw, bh
		got, err := TrackPreparedParallelCtx(context.Background(), o.prep, o.sm, opt, workers)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, name, got, o.referenceRun())
	}}
}

// drawnBlocksSurface is blocksSurface on a shape drawn from the case's
// name, each side from 1 to 8 pixels beyond the image's.
func drawnBlocksSurface(workers int) searchSurface {
	name := fmt.Sprintf("drawn blocks, workers=%d", workers)
	return searchSurface{name, func(t *testing.T, o *oracle) {
		h := fnv.New64a()
		h.Write([]byte(o.name + name))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		blocksSurface(1+rng.Intn(o.prep.W+8), 1+rng.Intn(o.prep.H+8), workers).check(t, o)
	}}
}

// winnersOn compares each pixel's float64 winner on side×side blocks,
// with the ε early exit off if noExit: the stored result rounds ε and θ
// to float32, which would hide a last-bit difference.
func winnersOn(side int, noExit bool) searchSurface {
	name := fmt.Sprintf("winners, %dx%d blocks, early exit off=%v", side, side, noExit)
	return searchSurface{name, func(t *testing.T, o *oracle) { o.requireWinners(t, name, o.opt(false), side, noExit) }}
}

// requireWinners runs one block kernel with opt over every side×side
// block (clipped to the image), with the ε early exit off if noExit, and
// requires each pixel's incumbent, plus its δ, to be its float64 winner
// bit for bit (any two NaNs match). It returns the screen's counts.
func (o *oracle) requireWinners(t *testing.T, what string, opt Options, side int, noExit bool) screenCounts {
	t.Helper()
	o.referenceRun()
	bw, bh := minInt(side, o.prep.W), minInt(side, o.prep.H)
	tiles := newTileGrid(o.prep.W, o.prep.H, bw, bh)
	k := newBlockKernel(o.prep, o.sm, opt, padNormals(o.prep), windowOrder(fullWindow(o.p)), bw, bh)
	k.noEarlyExit = noExit
	for i := 0; i < tiles.tiles(); i++ {
		tile := tiles.tile(i)
		k.searchTile(nil, tile)
		for p := 0; p < k.bw*k.bh; p++ {
			x, y := tile.X0+p%k.bw, tile.Y0+p/k.bw
			g, w := winner{k.best[p], k.theta[p]}, o.wins[y*o.prep.W+x]
			if o.sm != nil {
				dx, dy := o.sm.Delta(x, y, g.hx, g.hy)
				g.hx, g.hy = g.hx+dx, g.hy+dy
			}
			same := g.hx == w.hx && g.hy == w.hy && sameF64(g.eps, w.eps)
			for j := range w.theta {
				same = same && sameF64(g.theta[j], w.theta[j])
			}
			if !same {
				t.Fatalf("%s (%d,%d): block kernel (%d,%d) ε=%v θ=%v, reference (%d,%d) ε=%v θ=%v",
					what, x, y, g.hx, g.hy, g.eps, g.theta, w.hx, w.hy, w.eps, w.theta)
			}
		}
	}
	return k.screenCounts
}

// sameF64 reports whether a and b have the same bits; any two NaNs match
// (see requireSameBits).
func sameF64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// requireSameBits fails unless got and want hold bit-identical flow, ε
// and motion parameters. It compares float32 bits because Grid.Equal
// treats NaN as unequal to itself; any two NaNs match, since which NaN
// operand an x86 addition propagates (and so the sign of the result)
// follows the compiler's operand order, which -race changes.
func requireSameBits(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Motion) != len(want.Motion) {
		t.Fatalf("%s: %d motion grids, want %d", what, len(got.Motion), len(want.Motion))
	}
	gs := append([]*grid.Grid{got.Flow.U, got.Flow.V, got.Err}, got.Motion...)
	for i, w := range append([]*grid.Grid{want.Flow.U, want.Flow.V, want.Err}, want.Motion...) {
		for j, v := range w.Data {
			if u := gs[i].Data[j]; math.Float32bits(u) != math.Float32bits(v) && !(u != u && v != v) {
				field := [...]string{"flow u", "flow v", "ε", "θ"}[min(i, 3)]
				t.Fatalf("%s: %s at (%d,%d) is %v, its oracle's %v", what, field, j%w.W, j/w.W, u, v)
			}
		}
	}
}

// requireExhaustive fails unless st counts every hypothesis of every
// pixel and no fallbacks.
func requireExhaustive(t *testing.T, what string, prep *Prepared, st *PyramidStats) {
	t.Helper()
	px := int64(prep.W * prep.H)
	if *st != (PyramidStats{Pixels: px, Hypotheses: px * int64(prep.P.Hypotheses())}) {
		t.Fatalf("%s: stats %+v, want %d pixels × %d hypotheses", what, *st, px, prep.P.Hypotheses())
	}
}

// oracleEntry is one subtest of a named test: a case and its surfaces.
type oracleEntry struct {
	test, sub string
	c         oracleCase
	surfaces  []searchSurface
}

// oracleTable assigns the surfaces to the named tests' subtests, named
// after their case or the block shape, worker count or summed input they
// check. A surface an earlier entry checks on a case is left out of later
// ones.
func oracleTable() []oracleEntry {
	var table []oracleEntry
	seen := map[string]bool{}
	add := func(test, sub string, c oracleCase, surfaces ...searchSurface) {
		e := oracleEntry{test, sub, c, nil}
		for _, s := range surfaces {
			if !seen[c.name+"|"+s.name] {
				seen[c.name+"|"+s.name] = true
				e.surfaces = append(e.surfaces, s)
			}
		}
		table = append(table, e)
	}
	// With the screen off, Robust scores every hypothesis: only up to 400
	// pixels here.
	small := func(c oracleCase) bool { return !c.robust || len(c.pair().I0.Data) <= 400 }
	for _, c := range rowCases(blockRows...) {
		add("TestBlockKernelMatchesReference", c.name, c,
			winnersSurface, preparedSurface, drawnBlocksSurface(1), drawnBlocksSurface(3))
		if small(c) {
			add("TestScreenOnOffIdentity", c.name, c, screenOffSurface)
		}
		if c.robust { // the drivers below hand the estimator to the same kernel
			continue
		}
		add("TestParallelDriversBitIdenticalUnderRace", c.name, c, drawnBlocksSurface(runtime.GOMAXPROCS(0)))
		add("TestTrackParallelMatchesSequential", c.name, c, sequentialSurface)
		if c.p.SemiFluid() {
			add("TestMasParMatchesSequentialExactly", c.name, c, masParSurface)
		} else {
			add("TestMasParHostWorkersEquivalence", c.name, c, masParSurface)
			add("TestPyramidSingleLevelMatchesSequential", c.name, c, pyramidOffSurface)
		}
	}
	for _, c := range screenExtras() {
		winners := winnersSurface
		if c.ties {
			winners = tiedWinnersSurface
		}
		if small(c.oracleCase) {
			add("TestScreenOnOffIdentity", c.name, c.oracleCase, screenOffSurface, winners)
		}
	}
	for _, c := range rowCases("hurricane", "thunderstorm", "nan") {
		add("TestOptimizedKernelMatchesReference", c.name, c, preparedSurface, blocksSurface(0, 0, 3))
		for _, n := range []int{1, 2, 4, 8} {
			add("TestBatchKernelMatchesReference", fmt.Sprintf("%s/batch=%d", c.name, n), c, blocksSurface(n, n, 1))
		}
	}
	for _, c := range rowCases("seed=31", "seed=32", "seed=33") {
		add("TestEarlyExitBitIdentical", c.name, c, winnersSurface, winnersOn(blockSide, true))
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, semi := range []bool{false, true} {
			add("TestBatchEarlyExitBitIdentical", fmt.Sprintf("batch=%d/semi=%v", n, semi),
				rowCase("thunderstorm-18", semi, false), winnersOn(n, false), winnersOn(n, true))
		}
	}
	for _, s := range [][2]int{{0, 0}, {1, 1}, {5, 3}, {22, 1}, {64, 64}} {
		for _, workers := range []int{1, 2, 3, 8} {
			add("TestTileParallelBitIdentical", fmt.Sprintf("tile=%dx%d/workers=%d", s[0], s[1], workers),
				rowCase("hurricane-22", true, false), blocksSurface(s[0], s[1], workers))
		}
	}
	for _, s := range [][2]string{{"3x3", "3x3"}, {"1xN", "1x17"}, {"Nx1", "17x1"}, {"9x7", "9x7"},
		{"rect-overrides", "rect-x"}, {"rect-overrides-y", "rect-y"},
		{"multi-block-130x70", "multi-block-130x70"}, {"flat-ridge", "flat-ridge"}} {
		add("TestSummedMatchesOracle", s[0], rowCase(s[1], false, false), summedSurface)
	}
	for _, row := range []string{"hurricane-150x70", "thunderstorm-48"} {
		add("TestSummedScheduleIndependence", row, rowCase(row, false, false), summedSurface)
	}
	return table
}

// runTable runs the calling test's entries of oracleTable.
func runTable(t *testing.T) {
	n := 0
	for _, e := range oracleTable() {
		if e.test == t.Name() {
			n++
			t.Run(e.sub, func(t *testing.T) { checkSurfaces(t, oracleFor(t, e.c), e.surfaces...) })
		}
	}
	if n == 0 {
		t.Fatal("no oracle table entries")
	}
}

// The named tests, each running its entries of oracleTable: the block
// kernel's winners, TrackPrepared and drawn block shapes at 1 and 3
// workers on its rows; TrackPrepared and 3 workers on the hurricane,
// thunderstorm and nan scenes, and N×N blocks there; block shapes ×
// worker counts; drawn shapes at GOMAXPROCS workers (under `make race`
// this catches any unsynchronized write goroutinecapture missed); the
// early exit off on default and N×N blocks; TrackSequential, the pyramid
// entry point with the option off and TrackMasPar — the paper's §4
// validation — on Fsemi and Fcont; the summed-window search; and the
// screen off, with the winners on the screen's further cases.
func TestBlockKernelMatchesReference(t *testing.T)          { runTable(t) }
func TestOptimizedKernelMatchesReference(t *testing.T)      { runTable(t) }
func TestBatchKernelMatchesReference(t *testing.T)          { runTable(t) }
func TestTileParallelBitIdentical(t *testing.T)             { runTable(t) }
func TestParallelDriversBitIdenticalUnderRace(t *testing.T) { runTable(t) }
func TestEarlyExitBitIdentical(t *testing.T)                { runTable(t) }
func TestBatchEarlyExitBitIdentical(t *testing.T)           { runTable(t) }
func TestTrackParallelMatchesSequential(t *testing.T)       { runTable(t) }
func TestPyramidSingleLevelMatchesSequential(t *testing.T)  { runTable(t) }
func TestMasParMatchesSequentialExactly(t *testing.T)       { runTable(t) }
func TestMasParHostWorkersEquivalence(t *testing.T)         { runTable(t) }
func TestSummedMatchesOracle(t *testing.T)                  { runTable(t) }
func TestSummedScheduleIndependence(t *testing.T)           { runTable(t) }
func TestScreenOnOffIdentity(t *testing.T)                  { runTable(t) }

// FuzzKernelOracle checks every surface on random cases. Its seed corpus
// holds every fixed case of the table (fixed < their number), on which it
// checks the table's surfaces no named test has run in this binary, and
// two random seeds.
func FuzzKernelOracle(f *testing.F) {
	table := oracleTable()
	var cases []oracleCase
	seen := map[string]bool{}
	for _, e := range table {
		if !seen[e.c.name] {
			seen[e.c.name] = true
			cases = append(cases, e.c)
		}
	}
	for i := range cases {
		f.Add(uint8(i), int64(0))
	}
	f.Add(uint8(255), int64(1))
	f.Add(uint8(255), int64(2))
	all := []searchSurface{preparedSurface, winnersSurface, drawnBlocksSurface(1), drawnBlocksSurface(3),
		drawnBlocksSurface(runtime.GOMAXPROCS(0)), screenOffSurface, winnersOn(blockSide, true),
		sequentialSurface, pyramidOffSurface, masParSurface, summedSurface}
	f.Fuzz(func(t *testing.T, fixed uint8, seed int64) {
		if int(fixed) >= len(cases) {
			checkSurfaces(t, newOracle(t, randomCase(seed)), all...)
			return
		}
		o := oracleFor(t, cases[fixed])
		for _, e := range table {
			for _, s := range e.surfaces {
				if e.c.name == o.name && !o.done[s.name] {
					checkSurfaces(t, o, s)
				}
			}
		}
	})
}

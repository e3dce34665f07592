package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sma/internal/grid"
	"sma/internal/synth"
)

// buildSemiMapNaive is the direct evaluation of eqs. 9–11: for every
// pixel and hypothesis h it scores fsemi at each δ separately —
// (2·NZS+1)²·(2·NSS+1)² patch sums per pixel — with δ = (0, 0) first and
// a strict < in scan order. BuildSemiMapCtx must reproduce it byte for
// byte.
func buildSemiMapNaive(prep *Prepared) *SemiMap {
	p := prep.P
	if !p.SemiFluid() {
		return nil
	}
	w, h := prep.W, prep.H
	rx := p.SearchRX()
	ry := p.SearchRY()
	hyps := (2*rx + 1) * (2*ry + 1)
	sm := &SemiMap{W: w, H: h, RX: rx, RY: ry, NSS: p.NSS,
		DX: make([]int8, w*h*hyps), DY: make([]int8, w*h*hyps)}
	type chanPair struct{ d0, d1 *grid.Grid }
	channels := []chanPair{{prep.D0, prep.D1}}
	for _, c := range prep.Extra {
		channels = append(channels, chanPair{c.D0, c.D1})
	}
	nst := p.NST
	nss := p.NSS
	idx := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for hy := -ry; hy <= ry; hy++ {
				for hx := -rx; hx <= rx; hx++ {
					score := func(dx, dy int) float64 {
						var s float64
						qx := x + hx + dx
						qy := y + hy + dy
						for _, ch := range channels {
							for sy := -nst; sy <= nst; sy++ {
								for sx := -nst; sx <= nst; sx++ {
									d := float64(ch.d1.At(qx+sx, qy+sy) - ch.d0.At(x+sx, y+sy))
									s += d * d
								}
							}
						}
						return s
					}
					bestDX, bestDY := 0, 0
					best := score(0, 0)
					for dy := -nss; dy <= nss; dy++ {
						for dx := -nss; dx <= nss; dx++ {
							if dx == 0 && dy == 0 {
								continue
							}
							if s := score(dx, dy); s < best {
								best = s
								bestDX, bestDY = dx, dy
							}
						}
					}
					sm.DX[idx] = int8(bestDX)
					sm.DY[idx] = int8(bestDY)
					idx++
				}
			}
		}
	}
	return sm
}

// discPrep builds a Prepared holding only what the semi-fluid map reads:
// random discriminant fields (plus extra channels). levels > 0
// quantizes the samples to that many values, so equal patch scores —
// and with them the tie-break rule — are common.
func discPrep(rng *rand.Rand, p Params, w, h, extra, levels int) *Prepared {
	field := func() *grid.Grid {
		g := grid.New(w, h)
		for i := range g.Data {
			v := rng.Float64()
			if levels > 0 {
				v = math.Floor(v * float64(levels))
			}
			g.Data[i] = float32(v)
		}
		return g
	}
	prep := &Prepared{P: p, W: w, H: h, D0: field(), D1: field()}
	for c := 0; c < extra; c++ {
		prep.Extra = append(prep.Extra, ExtraChannel{D0: field(), D1: field()})
	}
	return prep
}

func scenePrep(t *testing.T, size int, p Params, extra bool) *Prepared {
	t.Helper()
	s := synth.Hurricane(size, size, 31)
	pair := Monocular(s.Frame(0), s.Frame(1))
	if extra {
		ts := synth.Thunderstorm(size, size, 37)
		pair.Extra = []Channel{{I0: ts.Frame(0), I1: ts.Frame(1)}}
	}
	prep, err := Prepare(pair, p)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

func sameSemiMap(a, b *SemiMap) bool {
	return a.W == b.W && a.H == b.H && a.RX == b.RX && a.RY == b.RY && a.NSS == b.NSS &&
		bytes.Equal(int8Bytes(a.DX), int8Bytes(b.DX)) && bytes.Equal(int8Bytes(a.DY), int8Bytes(b.DY))
}

func int8Bytes(v []int8) []byte {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = byte(x)
	}
	return b
}

// TestSemiMapMatchesNaive is the differential wall: the memoized map is
// byte-identical to the naive per-(h, δ) loop across NSS/NST 1–3,
// rectangular search windows, multispectral channels, grids too small
// for any pixel to take the interior path, flat frames, NaN samples and
// every worker count.
func TestSemiMapMatchesNaive(t *testing.T) {
	type tc struct {
		name string
		prep *Prepared
	}
	var cases []tc
	scaled := ScaledParams()
	cases = append(cases,
		tc{"scaled64", scenePrep(t, 64, scaled, false)},
		tc{"rect3x1-nss2", scenePrep(t, 40, Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 2, NZSX: 3, NZSY: 1}, false)},
		tc{"multispectral", scenePrep(t, 32, scaled, true)},
	)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 24; i++ {
		p := Params{NS: 2, NZT: 2, NZS: 1 + rng.Intn(3), NSS: 1 + rng.Intn(3), NST: 1 + rng.Intn(3)}
		if rng.Intn(2) == 0 {
			p.NZSX, p.NZSY = rng.Intn(4), rng.Intn(4)
		}
		w, h := 1+rng.Intn(30), 1+rng.Intn(30)
		levels := []int{0, 2, 5}[rng.Intn(3)]
		cases = append(cases, tc{fmt.Sprintf("random%02d-%dx%d-%+v-q%d", i, w, h, p, levels),
			discPrep(rng, p, w, h, rng.Intn(3), levels)})
	}
	cases = append(cases,
		tc{"border9x7", discPrep(rng, scaled, 9, 7, 0, 3)},
		tc{"strip1x23", discPrep(rng, scaled, 1, 23, 1, 0)},
		tc{"strip23x1", discPrep(rng, Params{NS: 2, NZS: 3, NZT: 2, NST: 3, NSS: 3}, 23, 1, 0, 0)},
	)
	flat := discPrep(rng, scaled, 24, 20, 1, 1) // one level: every sample is 0
	cases = append(cases, tc{"flat", flat})
	nan := discPrep(rng, scaled, 24, 24, 0, 0)
	nan.D1.Data[11*24+12] = float32(math.NaN())
	nan.D0.Data[5*24+3] = float32(math.NaN())
	cases = append(cases, tc{"nan", nan})

	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0)}
	for _, c := range cases {
		want := buildSemiMapNaive(c.prep)
		for _, workers := range workerCounts {
			got, err := BuildSemiMapCtx(context.Background(), c.prep, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if !sameSemiMap(got, want) {
				t.Fatalf("%s workers=%d: semi-fluid map differs from the naive evaluation", c.name, workers)
			}
		}
	}
	if sm := BuildSemiMap(flat); !bytes.Equal(int8Bytes(sm.DX), make([]byte, len(sm.DX))) ||
		!bytes.Equal(int8Bytes(sm.DY), make([]byte, len(sm.DY))) {
		t.Fatal("flat frames: a tie did not resolve to δ = (0, 0)")
	}
}

// TestSemiMapCtxPreCancelled: a cancelled ctx returns (nil, ctx.Err())
// before any work, for the continuous model too.
func TestSemiMapCtxPreCancelled(t *testing.T) {
	prep := discPrep(rand.New(rand.NewSource(1)), ScaledParams(), 16, 16, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, nss := range []int{1, 0} {
		prep.P.NSS = nss
		if sm, err := BuildSemiMapCtx(ctx, prep, 2); sm != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("NSS=%d: pre-cancelled build = (%v, %v), want (nil, context.Canceled)", nss, sm, err)
		}
	}
}

// TestSemiMapCtxCancelMidBuild cancels as the first row starts: each
// worker finishes at most the row it is on, the call returns
// (nil, context.Canceled), and no goroutine outlives it.
func TestSemiMapCtxCancelMidBuild(t *testing.T) {
	before := runtime.NumGoroutine()
	const workers = 4
	prep := discPrep(rand.New(rand.NewSource(2)), ScaledParams(), 64, 64, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rows atomic.Int64
	var once sync.Once
	sm, err := buildSemiMapCtx(ctx, prep, workers, func() {
		rows.Add(1)
		once.Do(cancel)
	})
	if sm != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build = (%v, %v), want (nil, context.Canceled)", sm, err)
	}
	if n := rows.Load(); n > workers {
		t.Fatalf("%d rows ran after cancellation, want ≤ workers (%d)", n, workers)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestSemiMapChunkedMatchesNaive covers the scratch shape large reaches
// take: when even a semiLanes-wide strip's terms for every displacement
// overflow tileL2Budget, the term rows hold the displacements a chunk at
// a time and every row refills them. The map is still the naive one.
func TestSemiMapChunkedMatchesNaive(t *testing.T) {
	p := Params{NS: 2, NZS: 6, NZT: 2, NST: 3, NSS: 1}
	prep := discPrep(rand.New(rand.NewSource(25)), p, 13, 11, 2, 3)
	nd := (2*(p.NZS+p.NSS) + 1) * (2*(p.NZS+p.NSS) + 1)
	if _, chunk := semiScratchShape(p, 3, 11); chunk >= nd {
		t.Fatalf("chunk %d holds all %d displacements: the case does not chunk", chunk, nd)
	}
	want := buildSemiMapNaive(prep)
	for _, workers := range []int{1, 2} {
		got, err := BuildSemiMapCtx(context.Background(), prep, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSemiMap(got, want) {
			t.Fatalf("workers=%d: chunked semi-fluid map differs from the naive evaluation", workers)
		}
	}
}

// TestSemiMapAllocsIndependentOfHeight: the build allocates the map,
// the scheduler's goroutines and one scratch per worker, so its
// allocation count does not grow with the image — no row or tile
// allocates.
func TestSemiMapAllocsIndependentOfHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	allocs := func(h int) float64 {
		prep := discPrep(rng, ScaledParams(), 64, h, 0, 0)
		return testing.AllocsPerRun(3, func() {
			if _, err := BuildSemiMapCtx(context.Background(), prep, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, tall := allocs(16), allocs(256); short != tall {
		t.Fatalf("allocations per build: %v at 64×16, %v at 64×256", short, tall)
	}
}

// FuzzSemiMap compares the map byte for byte with buildSemiMapNaive on
// random small grids (1×N and N×1 included), NSS and NST from 1 to 3,
// square and rectangular search windows, up to two extra channels,
// quantized samples (ties), NaN and ±Inf samples, and 1–3 workers.
func FuzzSemiMap(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(1), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(0), uint8(11), uint8(2), uint8(3), uint8(1), uint8(2), uint8(2), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), uint8(9), uint8(0), uint8(0), uint8(1), uint8(3), uint8(1), uint8(0), uint8(2), uint8(2), uint8(7))
	f.Add(int64(4), uint8(5), uint8(6), uint8(1), uint8(0), uint8(0), uint8(2), uint8(2), uint8(0), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, w, h, nzs, nzsx, nzsy, nss, nst, extra, workers, special uint8) {
		p := Params{NS: 2, NZT: 2,
			NZS: 1 + int(nzs%3), NZSX: int(nzsx % 4), NZSY: int(nzsy % 4),
			NSS: 1 + int(nss%3), NST: 1 + int(nst%3)}
		rng := rand.New(rand.NewSource(seed))
		prep := discPrep(rng, p, 1+int(w%12), 1+int(h%12), int(extra%3), []int{0, 2, 5}[rng.Intn(3)])
		chans := []*grid.Grid{prep.D0, prep.D1}
		for _, c := range prep.Extra {
			chans = append(chans, c.D0, c.D1)
		}
		values := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		for i := 0; i < int(special%8); i++ {
			g := chans[rng.Intn(len(chans))]
			g.Data[rng.Intn(len(g.Data))] = values[rng.Intn(len(values))]
		}
		want := buildSemiMapNaive(prep)
		got, err := BuildSemiMapCtx(context.Background(), prep, 1+int(workers%3))
		if err != nil {
			t.Fatal(err)
		}
		if !sameSemiMap(got, want) {
			t.Fatalf("%dx%d %+v, %d extra channels: semi-fluid map differs from the naive evaluation", prep.W, prep.H, p, len(prep.Extra))
		}
	})
}

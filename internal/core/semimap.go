package core

import (
	"context"
	"math"
	"math/bits"
	"runtime"
)

// SemiMap is the precomputed semi-fluid template mapping (paper eq. 9 and
// §4.1): for every image pixel p and every hypothesis offset h in the
// search area, the small displacement δ(p, h) that best re-matches the
// intensity-surface discriminant patch around p at time t against patches
// around p+h+δ at time t+1.
//
// Because the template neighborhoods of adjacent tracked pixels overlap,
// the mapping for (template pixel, hypothesis offset) is shared across all
// tracked pixels — the paper's key precomputation: "it is more efficient
// to pre-compute the template mapping for all pixels ... a template
// mapping is computed for each pixel (xs, ys) in the (2·Nzs+1)×(2·Nzs+1)
// neighborhood".
type SemiMap struct {
	W, H   int
	RX, RY int // search radii (hypothesis window) per axis
	NSS    int
	// DX/DY store δ per (pixel, hypothesis): index = (y·W + x)·hyps + hIdx.
	DX, DY []int8
}

// hyps returns the hypothesis count per pixel.
func (s *SemiMap) hyps() int { return (2*s.RX + 1) * (2*s.RY + 1) }

// hypIndex linearizes a hypothesis offset (hx, hy) ∈ [−RX, RX]×[−RY, RY].
func (s *SemiMap) hypIndex(hx, hy int) int {
	return (hy+s.RY)*(2*s.RX+1) + (hx + s.RX)
}

// covers reports whether hypothesis offset (hx, hy) has semi-map entries;
// a nil map (the continuous model) covers none.
func (s *SemiMap) covers(hx, hy int) bool {
	return s != nil && hx >= -s.RX && hx <= s.RX && hy >= -s.RY && hy <= s.RY
}

// Delta returns the semi-fluid adjustment δ for pixel (x, y) under
// hypothesis offset (hx, hy). Offsets outside the precomputed search
// window (possible under prior-guided search) return δ = 0.
func (s *SemiMap) Delta(x, y, hx, hy int) (dx, dy int) {
	if !s.covers(hx, hy) {
		return 0, 0
	}
	i := (y*s.W+x)*s.hyps() + s.hypIndex(hx, hy)
	return int(s.DX[i]), int(s.DY[i])
}

// BuildSemiMap is BuildSemiMapCtx on one worker without cancellation —
// the serial call every offline caller uses.
func BuildSemiMap(prep *Prepared) *SemiMap {
	//smavet:allow errdiscard,ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root, so the error is impossible
	sm, _ := BuildSemiMapCtx(context.Background(), prep, 1)
	return sm
}

// BuildSemiMapCtx precomputes the semi-fluid template mapping for every
// pixel and hypothesis on workers goroutines (0 = GOMAXPROCS). For
// NSS = 0 (continuous model) it returns a nil map: Fsemi degenerates to
// Fcont ("when Nss = 0 then Fsemi reduces to the mapping Fcont").
//
// Matching minimizes fsemi(p; q) = Σ over the (2·NST+1)² patch of
// (D′(q+s) − D(p+s))² — the discriminant-change measure of eqs. 10–11 —
// over q = p+h+δ, |δ|∞ ≤ NSS. δ = (0, 0) is evaluated first and ties are
// broken in its favor (then scan order), so featureless regions keep the
// continuous mapping and results are deterministic. When extra
// multispectral channels are prepared (paper §6: "using multispectral
// information"), the discriminant differences are summed across all
// channels.
//
// fsemi depends on h and δ only through the total displacement h+δ, so
// each pixel scores every distinct displacement once into a table
// (semiMapPixel) and takes each hypothesis's argmin from it. The table
// entries are the very sums the per-(h, δ) evaluation computes, in the
// same order, so the map is bit-identical to it at every worker count.
//
// Rows are claimed through the tile scheduler, which polls ctx before
// every row: after cancellation each worker finishes at most its current
// row and the call returns (nil, ctx.Err()).
func BuildSemiMapCtx(ctx context.Context, prep *Prepared, workers int) (*SemiMap, error) {
	return buildSemiMapCtx(ctx, prep, workers, nil)
}

// buildSemiMapCtx is BuildSemiMapCtx with a row hook: rowStart, when
// non-nil, runs as each row starts (the cancellation test counts rows
// with it).
func buildSemiMapCtx(ctx context.Context, prep *Prepared, workers int, rowStart func()) (*SemiMap, error) {
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := prep.P
	if !p.SemiFluid() {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w, h := prep.W, prep.H
	rx, ry := p.SearchRX(), p.SearchRY()
	hyps := (2*rx + 1) * (2*ry + 1)
	sm := &SemiMap{W: w, H: h, RX: rx, RY: ry, NSS: p.NSS,
		DX: make([]int8, w*h*hyps), DY: make([]int8, w*h*hyps)}
	side := chooseTileSize(p, w, h, workers)
	err := forEachTileRow(ctx, newTileGrid(w, h, side, side), workers, func() func(t tileRect, y int) {
		s := newSemiScorer(prep)
		return func(t tileRect, y int) {
			if rowStart != nil {
				rowStart()
			}
			for x := t.X0; x < t.X1; x++ {
				i := (y*w + x) * hyps
				s.semiMapPixel(x, y, sm.DX[i:i+hyps], sm.DY[i:i+hyps])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return sm, nil
}

// semiLanes is how many adjacent displacements scoreDisplacements sums
// at once: independent accumulators let their additions overlap instead
// of waiting on one float64 add chain.
const semiLanes = 4

// semiView locates one channel's samples for the pixel being mapped:
// patch sample (sy, sx) of D is p0[sy·st0 + sx], and sample (wy, wx) of
// the D′ window — origin (x−EX−NST, y−EY−NST), where EX = RX+NSS and
// EY = RY+NSS are the total-displacement reaches — is p1[wy·st1 + wx].
// Interior pixels view the discriminant grids in place (stride W);
// border pixels view edge-clamped copies.
type semiView struct {
	p0, p1   []float32
	st0, st1 int
}

// semiScorer is one worker's scratch for the semi-fluid map: the score
// table over total displacement, the per-channel views, and the clamped
// copies border pixels score from.
type semiScorer struct {
	ch       []ExtraChannel // channel 0 is the intensity discriminant
	w, h     int
	rx, ry   int
	nss, nst int
	ex, ey   int      // total-displacement reach: RX+NSS, RY+NSS
	tw, th   int      // score table edges: 2·EX+1, 2·EY+1
	n        int      // patch edge 2·NST+1
	ww, wh   int      // D′ window edges: TW+2·NST, TH+2·NST
	tab      []uint64 // semiKey of fsemi per total displacement
	// δ ≠ (0, 0) in scan order: table offset and components.
	nbrOff       []int
	nbrDX, nbrDY []int8
	views        []semiView
	pat, win     []float32 // clamped D patches and D′ windows, one per channel
}

func newSemiScorer(prep *Prepared) *semiScorer {
	p := prep.P
	s := &semiScorer{
		ch: append([]ExtraChannel{{D0: prep.D0, D1: prep.D1}}, prep.Extra...),
		w:  prep.W, h: prep.H,
		rx: p.SearchRX(), ry: p.SearchRY(),
		nss: p.NSS, nst: p.NST,
	}
	s.ex, s.ey = s.rx+s.nss, s.ry+s.nss
	s.tw, s.th = 2*s.ex+1, 2*s.ey+1
	s.n = 2*s.nst + 1
	s.ww, s.wh = s.tw+2*s.nst, s.th+2*s.nst
	s.tab = make([]uint64, s.tw*s.th)
	for dy := -s.nss; dy <= s.nss; dy++ {
		for dx := -s.nss; dx <= s.nss; dx++ {
			if dx != 0 || dy != 0 {
				s.nbrOff = append(s.nbrOff, dy*s.tw+dx)
				s.nbrDX = append(s.nbrDX, int8(dx))
				s.nbrDY = append(s.nbrDY, int8(dy))
			}
		}
	}
	s.views = make([]semiView, len(s.ch))
	s.pat = make([]float32, len(s.ch)*s.n*s.n)
	s.win = make([]float32, len(s.ch)*s.ww*s.wh)
	return s
}

// semiMapPixel fills δ for every hypothesis of pixel (x, y) into dx/dy
// (hypothesis raster order). Pixels whose whole reach — EX/EY plus the
// NST patch radius — lies inside the grid read the discriminant rows in
// place; the rest score edge-clamped copies, which hold exactly the
// samples grid.At serves there.
func (s *semiScorer) semiMapPixel(x, y int, dx, dy []int8) {
	reachX, reachY := s.ex+s.nst, s.ey+s.nst
	if x-reachX >= 0 && x+reachX < s.w && y-reachY >= 0 && y+reachY < s.h {
		for c, ch := range s.ch {
			s.views[c] = semiView{
				p0: ch.D0.Data[(y-s.nst)*s.w+x-s.nst:], st0: s.w,
				p1: ch.D1.Data[(y-reachY)*s.w+x-reachX:], st1: s.w,
			}
		}
	} else {
		for c, ch := range s.ch {
			pat := s.pat[c*s.n*s.n : (c+1)*s.n*s.n]
			ch.D0.CropInto(pat, x-s.nst, y-s.nst, s.n, s.n)
			win := s.win[c*s.ww*s.wh : (c+1)*s.ww*s.wh]
			ch.D1.CropInto(win, x-reachX, y-reachY, s.ww, s.wh)
			s.views[c] = semiView{p0: pat, st0: s.n, p1: win, st1: s.ww}
		}
	}
	scoreDisplacements(s.tab, s.tw, s.th, s.n, s.views)
	s.argminDeltas(dx, dy)
}

// scoreDisplacements fills tab[ty·tw + tx] with fsemi at total
// displacement (tx−EX, ty−EY): the sum over channels, then patch rows sy,
// then columns sx, of the squared float32 discriminant difference widened
// to float64 — the order eqs. 10–11 are evaluated in per (h, δ), so each
// entry is bit-identical to a direct evaluation. semiLanes adjacent
// displacements of a table row are summed side by side, each in its own
// accumulator; a row's last group is shifted left to end at the row's
// edge, recomputing (identically) entries it overlaps. tw ≥ semiLanes
// holds because validated params (Prepare checks them) have RX ≥ 1 and
// the semi-fluid model has NSS ≥ 1, so tw ≥ 5.
func scoreDisplacements(tab []uint64, tw, th, n int, views []semiView) {
	for ty := 0; ty < th; ty++ {
		row := tab[ty*tw : (ty+1)*tw]
		for tx := 0; tx < tw; tx += semiLanes {
			if tx+semiLanes > tw {
				tx = tw - semiLanes
			}
			var s0, s1, s2, s3 float64
			for _, v := range views {
				for sy := 0; sy < n; sy++ {
					r0 := v.p0[sy*v.st0 : sy*v.st0+n]
					o := (ty+sy)*v.st1 + tx
					r1 := v.p1[o : o+n+semiLanes-1]
					for i, a := range r0 {
						q := r1[i : i+semiLanes : i+semiLanes]
						d := float64(q[0] - a)
						s0 += d * d
						d = float64(q[1] - a)
						s1 += d * d
						d = float64(q[2] - a)
						s2 += d * d
						d = float64(q[3] - a)
						s3 += d * d
					}
				}
			}
			row[tx], row[tx+1], row[tx+2], row[tx+3] = semiKey(s0), semiKey(s1), semiKey(s2), semiKey(s3)
		}
	}
}

// argminDeltas takes each hypothesis h's δ from the score table: the
// table cell of h+δ over |δ|∞ ≤ NSS, starting from δ = (0, 0) and then
// in scan order (s.nbrOff) with a strict <, so ties keep the earlier δ.
// The table holds semiKey(score), whose integer order is the float
// order, so the comparisons run as branch-free borrow masks instead of
// unpredictable branches. A NaN centre keeps δ = (0, 0), as no float
// compares less than NaN; NaN neighbours carry the top key, so they
// never win.
func (s *semiScorer) argminDeltas(dx, dy []int8) {
	k := 0
	for hy := -s.ry; hy <= s.ry; hy++ {
		row := (hy + s.ey) * s.tw
		for hx := -s.rx; hx <= s.rx; hx++ {
			j := argminNbr(s.tab, s.nbrOff, row+hx+s.ex)
			if j >= 0 {
				dx[k], dy[k] = s.nbrDX[j], s.nbrDY[j]
			} else {
				dx[k], dy[k] = 0, 0
			}
			k++
		}
	}
}

// argminNbr returns the index into off of the neighbour of table cell c
// with the smallest key, the first in off among equal keys, when that key
// is below c's own; otherwise (and always when c is NaN) it returns −1.
func argminNbr(tab []uint64, off []int, c int) int {
	best, bj := tab[c], -1
	if best == semiNaNKey {
		return -1
	}
	for j, o := range off {
		// mask is all ones exactly when v < best.
		v := tab[c+o]
		_, lt := bits.Sub64(v, best, 0)
		mask := -lt
		best ^= (best ^ v) & mask
		bj ^= (bj ^ j) & int(mask)
	}
	return bj
}

// semiNaNKey is semiKey(NaN): above every other key, +Inf's included.
const semiNaNKey = math.MaxUint64

// semiKey maps an fsemi score to an integer with the same order. Scores
// are sums of squares, so they are +0, positive, +Inf or NaN, never
// negative or −0, and non-negative float64 bit patterns sort like the
// numbers they encode.
func semiKey(v float64) uint64 {
	if v != v {
		return semiNaNKey
	}
	return math.Float64bits(v)
}

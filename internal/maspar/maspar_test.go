package maspar

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sma/internal/grid"
)

func testMachine(ny, nx int) *Machine { return MustNew(ScaledConfig(ny, nx)) }

func randGrid(w, h int, seed int64) *grid.Grid {
	rng := rand.New(rand.NewSource(seed))
	g := grid.New(w, h)
	for i := range g.Data {
		g.Data[i] = rng.Float32() * 100
	}
	return g
}

// --- Config and cost model -------------------------------------------------

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.NProc() != 16384 {
		t.Fatalf("NProc = %d, want 16384", c.NProc())
	}
	if c.MemPerPE != 64*1024 {
		t.Fatalf("MemPerPE = %d, want 64 KB", c.MemPerPE)
	}
	// The paper: X-net bandwidth is 18 times higher than router.
	if ratio := c.XNetBW / c.RouterBW; ratio < 17 || ratio > 19 {
		t.Fatalf("XNet/Router bandwidth ratio = %v, want ≈18", ratio)
	}
}

func TestScaledConfigPreservesPerPERates(t *testing.T) {
	full := DefaultConfig()
	small := ScaledConfig(8, 8)
	perPEFull := full.SustainedFlops / float64(full.NProc())
	perPESmall := small.SustainedFlops / float64(small.NProc())
	if diff := perPEFull - perPESmall; diff > 1 || diff < -1 {
		t.Fatalf("per-PE flop rate changed: %v vs %v", perPEFull, perPESmall)
	}
}

func TestTimeModelUnitCosts(t *testing.T) {
	c := DefaultConfig()
	// One plural flop instruction = nproc flops at the sustained rate.
	d := c.Time(Cost{PluralFlops: 1})
	want := time.Duration(float64(c.NProc()) / c.SustainedFlops * float64(time.Second))
	if d < want-time.Nanosecond || d > want+time.Nanosecond {
		t.Fatalf("flop instruction time %v, want %v", d, want)
	}
	// Router sends are 18x slower than X-net shifts (32-bit each).
	dx := c.Time(Cost{XNetShifts: 100})
	dr := c.Time(Cost{RouterSends: 100})
	ratio := float64(dr) / float64(dx)
	if ratio < 17 || ratio > 19 {
		t.Fatalf("router/xnet time ratio = %v, want ≈18", ratio)
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{PluralFlops: 1, XNetShifts: 2, GaussianElims: 3}
	a.Add(Cost{PluralFlops: 10, MemDirect: 5, GaussianElims: 1})
	if a.PluralFlops != 11 || a.MemDirect != 5 || a.XNetShifts != 2 || a.GaussianElims != 4 {
		t.Fatalf("Add result %+v", a)
	}
}

func TestChargeGauss6(t *testing.T) {
	m := testMachine(4, 4)
	m.ChargeGauss6()
	if m.Cost.GaussianElims != 1 || m.Cost.PluralFlops != Gauss6Flops {
		t.Fatalf("ledger %+v", m.Cost)
	}
}

// --- Memory allocator ------------------------------------------------------

func TestAllocBudget(t *testing.T) {
	m := testMachine(4, 4)
	if err := m.Alloc("images", 60*1024); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc("mappings", 8*1024); err == nil {
		t.Fatal("allocation over 64 KB/PE accepted")
	}
	if err := m.Alloc("mappings", 4*1024); err != nil {
		t.Fatal(err)
	}
	if m.MemUsed() != 64*1024 {
		t.Fatalf("MemUsed = %d", m.MemUsed())
	}
	m.Free("mappings")
	if m.MemUsed() != 60*1024 {
		t.Fatalf("MemUsed after free = %d", m.MemUsed())
	}
}

func TestAllocReplaceSameName(t *testing.T) {
	m := testMachine(2, 2)
	if err := m.Alloc("a", 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc("a", 2000); err != nil {
		t.Fatal(err)
	}
	if m.MemUsed() != 2000 {
		t.Fatalf("MemUsed = %d, want 2000 (replacement, not sum)", m.MemUsed())
	}
}

// --- Hierarchical mapping (Fig. 2, eq. 12–13) -------------------------------

func TestHierarchicalPaperExample(t *testing.T) {
	// 512×512 image on 128×128 PEs -> 16 pixels per PE (paper §3.2).
	m := MustNew(DefaultConfig())
	h := mustHier(m, 512, 512)
	if h.XVR != 4 || h.YVR != 4 || h.Layers() != 16 {
		t.Fatalf("xvr=%d yvr=%d layers=%d, want 4,4,16", h.XVR, h.YVR, h.Layers())
	}
}

func TestHierarchicalRoundTrip(t *testing.T) {
	m := testMachine(4, 8)
	h := mustHier(m, 32, 16)
	seen := make(map[[2]int]bool)
	for y := 0; y < 16; y++ {
		for x := 0; x < 32; x++ {
			pe, mem := h.Place(x, y)
			if pe < 0 || pe >= 32 || mem < 0 || mem >= h.Layers() {
				t.Fatalf("Place(%d,%d) = (%d,%d) out of range", x, y, pe, mem)
			}
			if seen[[2]int{pe, mem}] {
				t.Fatalf("slot collision at (%d,%d)", pe, mem)
			}
			seen[[2]int{pe, mem}] = true
			bx, by := h.Invert(pe, mem)
			if bx != x || by != y {
				t.Fatalf("Invert(Place(%d,%d)) = (%d,%d)", x, y, bx, by)
			}
		}
	}
}

func TestHierarchicalNeighborsStayClose(t *testing.T) {
	// The defining property: pixel neighbors are on the same or adjacent PEs.
	m := testMachine(8, 8)
	h := mustHier(m, 32, 32) // xvr = yvr = 4
	for y := 0; y < 31; y++ {
		for x := 0; x < 31; x++ {
			pe1, _ := h.Place(x, y)
			pe2, _ := h.Place(x+1, y)
			px1, py1 := pe1%8, pe1/8
			px2, py2 := pe2%8, pe2/8
			if abs(px1-px2) > 1 || abs(py1-py2) > 1 {
				t.Fatalf("x-neighbors of (%d,%d) are on distant PEs", x, y)
			}
		}
	}
}

func TestHierarchicalPESpan(t *testing.T) {
	m := MustNew(DefaultConfig())
	h := mustHier(m, 512, 512) // xvr = 4
	cases := []struct{ r, want int }{{1, 1}, {4, 1}, {5, 2}, {60, 15}}
	for _, c := range cases {
		if got := h.PESpanX(c.r); got != c.want {
			t.Errorf("PESpanX(%d) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestCutStackRoundTripAndSpan(t *testing.T) {
	m := testMachine(4, 4)
	c := mustCut(m, 16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			pe, mem := c.Place(x, y)
			bx, by := c.Invert(pe, mem)
			if bx != x || by != y {
				t.Fatalf("cut-stack Invert(Place(%d,%d)) = (%d,%d)", x, y, bx, by)
			}
		}
	}
	if got := c.PESpanX(3); got != 3 {
		t.Fatalf("cut-stack PESpanX(3) = %d, want 3 (every pixel step is a PE step)", got)
	}
}

func TestDistributeCollectRoundTrip(t *testing.T) {
	m := testMachine(4, 4)
	g := randGrid(16, 16, 1)
	for _, mp := range []Mapping{mustHier(m, 16, 16), mustCut(m, 16, 16)} {
		img := mustDistribute(m, mp, g)
		back := img.Collect()
		if !g.Equal(back) {
			t.Fatalf("%T round trip failed", mp)
		}
	}
}

// Property: Place is a bijection for random image sizes (padded slots unused).
func TestPropertyHierarchicalBijection(t *testing.T) {
	f := func(wRaw, hRaw uint8) bool {
		w := int(wRaw%32) + 4
		h := int(hRaw%32) + 4
		m := testMachine(4, 4)
		hm := mustHier(m, w, h)
		seen := make(map[int]bool)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				pe, mem := hm.Place(x, y)
				key := pe*hm.Layers()*2 + mem
				if seen[key] {
					return false
				}
				seen[key] = true
				bx, by := hm.Invert(pe, mem)
				if bx != x || by != y {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- X-net topology (Fig. 1) -------------------------------------------------

func TestXNetShiftDirections(t *testing.T) {
	m := testMachine(4, 4)
	p := NewPlural(m)
	for i := range p.V {
		p.V[i] = float32(i)
	}
	// Shifting East: PE (x,y) receives from (x+1,y), toroidal.
	e := p.XNetShift(East)
	for py := 0; py < 4; py++ {
		for px := 0; px < 4; px++ {
			want := float32(py*4 + (px+1)%4)
			if got := e.V[py*4+px]; got != want {
				t.Fatalf("East shift at (%d,%d) = %v, want %v", px, py, got, want)
			}
		}
	}
	// A full cycle of 4 shifts in one direction returns the original.
	c := p
	for i := 0; i < 4; i++ {
		c = c.XNetShift(South)
	}
	for i := range p.V {
		if c.V[i] != p.V[i] {
			t.Fatal("4 South shifts on a 4-row torus did not return to start")
		}
	}
}

func TestXNetDiagonalEqualsTwoOrthogonal(t *testing.T) {
	m := testMachine(4, 4)
	p := NewPlural(m)
	for i := range p.V {
		p.V[i] = float32(i * i)
	}
	d := p.XNetShift(SouthEast)
	o := p.XNetShift(South).XNetShift(East)
	for i := range d.V {
		if d.V[i] != o.V[i] {
			t.Fatal("SE shift != South then East")
		}
	}
	// But the 8-way X-net does the diagonal in ONE shift instruction.
	m.ResetCost()
	p.XNetShift(SouthEast)
	if m.Cost.XNetShifts != 1 {
		t.Fatalf("diagonal shift cost %d instructions, want 1", m.Cost.XNetShifts)
	}
}

func TestXNetShiftChargesCost(t *testing.T) {
	m := testMachine(4, 4)
	p := NewPlural(m)
	m.ResetCost()
	p.XNetShift(North)
	p.XNetShift(West)
	if m.Cost.XNetShifts != 2 {
		t.Fatalf("XNetShifts = %d, want 2", m.Cost.XNetShifts)
	}
}

func TestDirectionDeltaAll8(t *testing.T) {
	seen := make(map[[2]int]bool)
	for d := North; d <= NorthWest; d++ {
		dx, dy := d.Delta()
		if dx == 0 && dy == 0 {
			t.Fatalf("direction %v has zero delta", d)
		}
		seen[[2]int{dx, dy}] = true
	}
	if len(seen) != 8 {
		t.Fatalf("got %d distinct neighbor deltas, want 8", len(seen))
	}
}

func TestRouterPermute(t *testing.T) {
	m := testMachine(2, 2)
	p := NewPlural(m)
	copy(p.V, []float32{10, 20, 30, 40})
	out, err := p.RouterPermute([]int{3, 2, 1, 0}) // reverse
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{40, 30, 20, 10}
	for i, v := range want {
		if out.V[i] != v {
			t.Fatalf("permute out[%d] = %v, want %v", i, out.V[i], v)
		}
	}
	if m.Cost.RouterSends != 1 {
		t.Fatalf("RouterSends = %d, want 1", m.Cost.RouterSends)
	}
}

func TestRouterPermuteRejectsNonPermutation(t *testing.T) {
	m := testMachine(2, 2)
	p := NewPlural(m)
	if _, err := p.RouterPermute([]int{0, 0, 1, 2}); err == nil {
		t.Fatal("duplicate destination accepted")
	}
	if _, err := p.RouterPermute([]int{0, 1, 2}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if _, err := p.RouterPermute([]int{0, 1, 2, 9}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

// --- Neighborhood read-out (Fig. 3, §4.2) ------------------------------------

func TestShiftPixelMovesImage(t *testing.T) {
	m := testMachine(4, 4)
	g := randGrid(16, 16, 3)
	img := mustDistribute(m, mustHier(m, 16, 16), g)
	sh := img.ShiftPixel(East) // out(x,y) = in(x+1,y)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			want := g.AtUnchecked((x+1)%16, y)
			if got := sh.At(x, y); got != want {
				t.Fatalf("ShiftPixel East at (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestShiftPixelCostHierarchicalVsCutStack(t *testing.T) {
	mH := testMachine(4, 4)
	mC := testMachine(4, 4)
	g := randGrid(16, 16, 4)
	imgH := mustDistribute(mH, mustHier(mH, 16, 16), g)
	imgC := mustDistribute(mC, mustCut(mC, 16, 16), g)
	mH.ResetCost()
	mC.ResetCost()
	imgH.ShiftPixel(East)
	imgC.ShiftPixel(East)
	// Hierarchical: only the boundary column (yvr=4 pixels) crosses PEs.
	// Cut-and-stack: all 16 resident pixels cross.
	if mH.Cost.XNetShifts != 4 {
		t.Fatalf("hierarchical shift xnet = %d, want 4", mH.Cost.XNetShifts)
	}
	if mC.Cost.XNetShifts != 16 {
		t.Fatalf("cut-stack shift xnet = %d, want 16", mC.Cost.XNetShifts)
	}
}

func TestSnakePathCoversBoxExactlyOnce(t *testing.T) {
	for _, r := range []int{1, 2, 3} {
		path := snakePath(r)
		du, dv := 0, 0
		visited := make(map[[2]int]int)
		visited[[2]int{0, 0}]++
		for _, d := range path {
			dx, dy := d.Delta()
			du += dx
			dv += dy
			visited[[2]int{du, dv}]++
		}
		side := 2*r + 1
		// Every offset in the box is visited at least once...
		for y := -r; y <= r; y++ {
			for x := -r; x <= r; x++ {
				if visited[[2]int{x, y}] == 0 {
					t.Fatalf("r=%d: offset (%d,%d) never visited", r, x, y)
				}
			}
		}
		// ...and the walk never leaves the box.
		if len(visited) != side*side {
			t.Fatalf("r=%d: visited %d offsets, want %d", r, len(visited), side*side)
		}
	}
}

func TestGatherSnakeMatchesDirectGather(t *testing.T) {
	m := testMachine(4, 4)
	g := randGrid(16, 16, 5)
	img := mustDistribute(m, mustHier(m, 16, 16), g)
	r := 2
	nb := GatherSnake(img, r)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			for dv := -r; dv <= r; dv++ {
				for du := -r; du <= r; du++ {
					want := g.AtUnchecked(((x+du)%16+16)%16, ((y+dv)%16+16)%16)
					if got := nb.At(x, y, du, dv); got != want {
						t.Fatalf("snake nb(%d,%d,%d,%d) = %v, want %v", x, y, du, dv, got, want)
					}
				}
			}
		}
	}
}

func TestGatherRasterMatchesSnake(t *testing.T) {
	m1 := testMachine(4, 4)
	m2 := testMachine(4, 4)
	g := randGrid(16, 16, 6)
	r := 2
	snake := GatherSnake(mustDistribute(m1, mustHier(m1, 16, 16), g), r)
	raster := GatherRaster(mustDistribute(m2, mustHier(m2, 16, 16), g), r)
	for i := range snake.Vals {
		for k := range snake.Vals[i] {
			if snake.Vals[i][k] != raster.Vals[i][k] {
				t.Fatalf("schemes disagree at pixel %d offset %d", i, k)
			}
		}
	}
}

func TestSnakeFetchCostMatchesActualCharges(t *testing.T) {
	m := testMachine(4, 4)
	g := randGrid(16, 16, 7)
	mp := mustHier(m, 16, 16)
	img := mustDistribute(m, mp, g)
	for _, r := range []int{1, 2, 3} {
		m.ResetCost()
		GatherSnake(img, r)
		want := SnakeFetchCost(mp, r)
		if m.Cost.XNetShifts != want.XNetShifts || m.Cost.MemDirect != want.MemDirect {
			t.Fatalf("r=%d: actual (xnet=%d mem=%d) vs formula (xnet=%d mem=%d)",
				r, m.Cost.XNetShifts, m.Cost.MemDirect, want.XNetShifts, want.MemDirect)
		}
	}
}

func TestRasterFasterThanSnakeAtPaperScale(t *testing.T) {
	// The paper's §4.2 finding: the raster-scan bounding-box read-out beats
	// the snake read-out. Check with Frederic-scale parameters (121×121
	// template on a 512×512 image, 128×128 PEs).
	cfg := DefaultConfig()
	m := MustNew(cfg)
	mp := mustHier(m, 512, 512)
	r := 60
	snake := cfg.Time(SnakeFetchCost(mp, r))
	raster := cfg.Time(RasterFetchCost(mp, r))
	if raster >= snake {
		t.Fatalf("raster %v not faster than snake %v", raster, snake)
	}
}

func TestHierarchicalFetchCheaperThanCutStack(t *testing.T) {
	// The §3.2 design choice: 2-D hierarchical folding minimizes mesh
	// transfers versus cut-and-stack.
	cfg := DefaultConfig()
	m := MustNew(cfg)
	h := mustHier(m, 512, 512)
	c := mustCut(m, 512, 512)
	for _, scheme := range []FetchScheme{SnakeReadout, RasterReadout} {
		th := mustFetchCost(h, 12, scheme).XNetShifts
		tc := mustFetchCost(c, 12, scheme).XNetShifts
		if th >= tc {
			t.Fatalf("%v: hierarchical xnet %d not below cut-stack %d", scheme, th, tc)
		}
	}
}

func TestBoxExtentProperties(t *testing.T) {
	// Extent must cover exactly the PE offsets holding in-range pixels.
	for vr := 1; vr <= 5; vr++ {
		for s := 0; s < vr; s++ {
			for r := 0; r <= 9; r++ {
				want := make(map[int]bool)
				// target intra-PE positions t in [0,vr); offsets δ in [-r,r]:
				// source pixel at PE offset floor((t+δ-s)/vr) relative... the
				// source at intra-position s on PE q is needed by target t on
				// PE p iff q·vr+s ∈ [p·vr+t−r, p·vr+t+r].
				for tpos := 0; tpos < vr; tpos++ {
					for d := -r; d <= r; d++ {
						// pixel tpos+d has absolute position; its PE offset:
						off := floorDiv(tpos+d-s, vr)
						if (tpos+d-s)-off*vr == 0 {
							want[off] = true
						}
					}
				}
				got := boxExtent(s, r, vr)
				lo := floorDiv(0-r-s, vr)
				hi := floorDiv(vr-1+r-s, vr)
				if int(got) != hi-lo+1 {
					t.Fatalf("internal inconsistency")
				}
				// All wanted offsets lie within [lo, hi].
				for o := range want {
					if o < lo || o > hi {
						t.Fatalf("vr=%d s=%d r=%d: needed offset %d outside [%d,%d]",
							vr, s, r, o, lo, hi)
					}
				}
			}
		}
	}
}

// --- Segmentation (§4.3) -----------------------------------------------------

func TestPlanSegmentsPaperInfeasibleExample(t *testing.T) {
	// Paper: "storing just two floating point numbers for each precomputed
	// template mapping for a 23×23 search area with 16 pixel elements per
	// PE would require 67.7 KB per PE" — infeasible without segmentation,
	// feasible with it.
	m := MustNew(DefaultConfig())
	p := SegmentParams{NZS: 11, NZT: 60, NS: 2, Layers: 16, FloatSize: 4}
	whole := p.MappingBytesPerRow() * (2*p.NZS + 1)
	if whole < 64*1024 {
		t.Fatalf("unsegmented store %d B/PE should exceed 64 KB", whole)
	}
	plan, err := PlanSegments(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Segments < 2 {
		t.Fatalf("plan %+v: paper-scale case must need segmentation", plan)
	}
	if plan.BytesPE > 64*1024 {
		t.Fatalf("plan %+v exceeds PE memory", plan)
	}
}

func TestPlanSegmentsFrederic(t *testing.T) {
	// Frederic run (Table 2 note): "the template mapping data was not
	// segmented during this run, i.e. Z = 2·Nzs + 1" — a 13×13 search fits.
	m := MustNew(DefaultConfig())
	p := SegmentParams{NZS: 6, NZT: 60, NS: 2, Layers: 16, FloatSize: 4}
	plan, err := PlanSegments(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Segments != 1 || plan.Z != 13 {
		t.Fatalf("Frederic plan %+v, want single segment with Z=13", plan)
	}
}

func TestPlanSegmentsErrorWhenNothingFits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemPerPE = 1024
	m := MustNew(cfg)
	p := SegmentParams{NZS: 11, NZT: 60, NS: 2, Layers: 16, FloatSize: 4}
	if _, err := PlanSegments(m, p); err == nil {
		t.Fatal("impossible plan accepted")
	}
}

func TestPlanSegmentsRespectsExistingAllocations(t *testing.T) {
	m := MustNew(DefaultConfig())
	p := SegmentParams{NZS: 6, NZT: 60, NS: 2, Layers: 16, FloatSize: 4}
	base, err := PlanSegments(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc("extra", 52*1024); err != nil {
		t.Fatal(err)
	}
	squeezed, err := PlanSegments(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if squeezed.Z >= base.Z {
		t.Fatalf("Z did not shrink under memory pressure: %d vs %d", squeezed.Z, base.Z)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// mustHier, mustCut, mustDistribute and mustFetchCost unwrap the library's
// error returns for test fixtures whose inputs are valid by construction.
func mustHier(m *Machine, w, h int) *Hierarchical {
	mp, err := NewHierarchical(m, w, h)
	if err != nil {
		panic(err)
	}
	return mp
}

func mustCut(m *Machine, w, h int) *CutStack {
	mp, err := NewCutStack(m, w, h)
	if err != nil {
		panic(err)
	}
	return mp
}

func mustDistribute(m *Machine, mp Mapping, g *grid.Grid) *Image {
	img, err := Distribute(m, mp, g)
	if err != nil {
		panic(err)
	}
	return img
}

func mustFetchCost(mp Mapping, r int, s FetchScheme) Cost {
	c, err := FetchCost(mp, r, s)
	if err != nil {
		panic(err)
	}
	return c
}

// Collect gathers the distributed image back into a grid: the tests'
// readback of Distribute.
func (img *Image) Collect() *grid.Grid {
	w, h := img.Map.Dims()
	g := grid.New(w, h)
	for mem, layer := range img.Data {
		for pe, v := range layer {
			x, y := img.Map.Invert(pe, mem)
			if x < w && y < h {
				g.Set(x, y, v)
			}
		}
	}
	img.M.ChargeMem(int64(img.Map.Layers()))
	return g
}

// ResetCost clears the cost ledger.
func (m *Machine) ResetCost() { m.Cost = Cost{} }

// Time applies the machine's configuration to its own ledger.
func (m *Machine) Time() time.Duration { return m.Cfg.Time(m.Cost) }

package maspar

import (
	"fmt"

	"sma/internal/grid"
)

// Mapping is a data folding of an M×N pixel image onto the PE array: every
// pixel is assigned a (PE, memory-layer) slot. The paper compares the 2-D
// hierarchical mapping (chosen) against cut-and-stack (rejected) — the
// difference is how many X-net mesh transfers a neighborhood fetch needs.
type Mapping interface {
	// Place returns the PE index and memory layer of pixel (x, y).
	Place(x, y int) (pe, mem int)
	// Invert returns the pixel stored at (pe, mem).
	Invert(pe, mem int) (x, y int)
	// Layers returns the number of memory layers (pixels per PE).
	Layers() int
	// PESpanX returns how many PE columns a ±r pixel x-neighborhood spans
	// beyond the home PE (the mesh-transfer radius in PE units).
	PESpanX(r int) int
	// PESpanY is the y-direction analog.
	PESpanY(r int) int
	// Dims returns the image dimensions (N columns, M rows).
	Dims() (w, h int)
	// ShiftCost returns the per-instruction cost of shifting the
	// distributed image by one pixel in direction d: X-net transfers for
	// the pixels that cross PE boundaries and memory moves for the
	// intra-PE shuffle.
	ShiftCost(d Direction) (xnet, mem int64)
	// RasterCost returns the communication cost of one raster-scan
	// neighborhood fetch of radius r under this mapping.
	RasterCost(r int) Cost
}

// Hierarchical is the 2-D hierarchical data mapping of the paper (Fig. 2
// and eq. 12–13): each PE stores a contiguous xvr×yvr block of pixels, so
// spatially neighboring pixels live on the same or neighboring PEs.
type Hierarchical struct {
	W, H           int // image dims: W = N columns, H = M rows
	NXProc, NYProc int
	XVR, YVR       int // pixels per PE in x and y: xvr = ceil(N/nxproc)
}

// NewHierarchical builds the hierarchical mapping for an image of w×h
// pixels on the machine's PE array (paper eq. 12: yvr = ⌈M/nyproc⌉,
// xvr = ⌈N/nxproc⌉). An error is returned for non-positive image
// dimensions.
func NewHierarchical(m *Machine, w, h int) (*Hierarchical, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("maspar: invalid image %dx%d", w, h)
	}
	return &Hierarchical{
		W: w, H: h,
		NXProc: m.Cfg.NXProc, NYProc: m.Cfg.NYProc,
		XVR: (w + m.Cfg.NXProc - 1) / m.Cfg.NXProc,
		YVR: (h + m.Cfg.NYProc - 1) / m.Cfg.NYProc,
	}, nil
}

// Place implements eq. (12): iyproc = y div yvr, ixproc = x div xvr,
// mem = (x mod xvr) + xvr·(y mod yvr).
func (h *Hierarchical) Place(x, y int) (pe, mem int) {
	iyproc := y / h.YVR
	ixproc := x / h.XVR
	mem = (x % h.XVR) + h.XVR*(y%h.YVR)
	return iyproc*h.NXProc + ixproc, mem
}

// Invert implements eq. (13): x = ixproc·xvr + (mem mod xvr),
// y = iyproc·yvr + (mem div xvr).
func (h *Hierarchical) Invert(pe, mem int) (x, y int) {
	iyproc := pe / h.NXProc
	ixproc := pe % h.NXProc
	x = ixproc*h.XVR + mem%h.XVR
	y = iyproc*h.YVR + mem/h.XVR
	return x, y
}

// Layers implements Mapping.
func (h *Hierarchical) Layers() int { return h.XVR * h.YVR }

// PESpanX implements Mapping: a ±r pixel span crosses at most
// ⌈r/xvr⌉ PE columns in each direction.
func (h *Hierarchical) PESpanX(r int) int { return (r + h.XVR - 1) / h.XVR }

// PESpanY implements Mapping.
func (h *Hierarchical) PESpanY(r int) int { return (r + h.YVR - 1) / h.YVR }

// Dims implements Mapping.
func (h *Hierarchical) Dims() (w, hh int) { return h.W, h.H }

// ShiftCost implements Mapping: every resident pixel moves one memory
// slot; the boundary column (yvr pixels) and/or row (xvr pixels) cross via
// X-net.
func (h *Hierarchical) ShiftCost(d Direction) (xnet, mem int64) {
	dx, dy := d.Delta()
	mem = int64(h.Layers())
	if dx != 0 {
		xnet += int64(h.YVR)
	}
	if dy != 0 {
		xnet += int64(h.XVR)
	}
	return xnet, mem
}

// RasterCost implements Mapping: for every source memory layer, the
// (generally non-square) PE bounding box is traversed in raster order —
// one X-net shift instruction per box position — and each PE stores the
// values its resident target pixels need.
func (h *Hierarchical) RasterCost(r int) Cost {
	var c Cost
	side := int64(2*r + 1)
	// Per source layer (sx, sy): PE box extents depend on the intra-PE
	// position of the source pixel.
	for sy := 0; sy < h.YVR; sy++ {
		bh := boxExtent(sy, r, h.YVR)
		for sx := 0; sx < h.XVR; sx++ {
			bw := boxExtent(sx, r, h.XVR)
			c.XNetShifts += bw * bh
		}
	}
	// One store per needed value per resident target pixel.
	c.MemDirect += int64(h.Layers()) * side * side
	return c
}

// CutStack is the cut-and-stack data mapping the paper rejects: pixel
// (x, y) goes to PE (x mod nxproc, y mod nyproc), so the image is cut into
// nxproc×nyproc-sized tiles stacked in PE memory. A ±r pixel neighborhood
// then spans r whole PE columns — xvr times more mesh transfers than the
// hierarchical mapping.
type CutStack struct {
	W, H           int
	NXProc, NYProc int
	TilesX         int // number of tiles across: ceil(W/nxproc)
	TilesY         int
}

// NewCutStack builds the cut-and-stack mapping. An error is returned for
// non-positive image dimensions.
func NewCutStack(m *Machine, w, h int) (*CutStack, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("maspar: invalid image %dx%d", w, h)
	}
	return &CutStack{
		W: w, H: h,
		NXProc: m.Cfg.NXProc, NYProc: m.Cfg.NYProc,
		TilesX: (w + m.Cfg.NXProc - 1) / m.Cfg.NXProc,
		TilesY: (h + m.Cfg.NYProc - 1) / m.Cfg.NYProc,
	}, nil
}

// Place implements Mapping.
func (c *CutStack) Place(x, y int) (pe, mem int) {
	pe = (y%c.NYProc)*c.NXProc + (x % c.NXProc)
	mem = (y/c.NYProc)*c.TilesX + x/c.NXProc
	return pe, mem
}

// Invert implements Mapping.
func (c *CutStack) Invert(pe, mem int) (x, y int) {
	x = (mem%c.TilesX)*c.NXProc + pe%c.NXProc
	y = (mem/c.TilesX)*c.NYProc + pe/c.NXProc
	return x, y
}

// Layers implements Mapping.
func (c *CutStack) Layers() int { return c.TilesX * c.TilesY }

// PESpanX implements Mapping: under cut-and-stack every pixel step is a PE
// step, capped at the mesh width.
func (c *CutStack) PESpanX(r int) int {
	if r > c.NXProc {
		return c.NXProc
	}
	return r
}

// PESpanY implements Mapping.
func (c *CutStack) PESpanY(r int) int {
	if r > c.NYProc {
		return c.NYProc
	}
	return r
}

// Dims implements Mapping.
func (c *CutStack) Dims() (w, h int) { return c.W, c.H }

// ShiftCost implements Mapping: under cut-and-stack every pixel step is a
// PE step, so all resident pixels cross a PE boundary on every shift.
func (c *CutStack) ShiftCost(d Direction) (xnet, mem int64) {
	mem = int64(c.Layers())
	xnet = int64(c.Layers())
	return xnet, mem
}

// RasterCost implements Mapping: every source layer's box spans the full
// pixel radius in PEs.
func (c *CutStack) RasterCost(r int) Cost {
	var cost Cost
	side := int64(2*r + 1)
	bw := int64(2*c.PESpanX(r) + 1)
	bh := int64(2*c.PESpanY(r) + 1)
	cost.XNetShifts += int64(c.Layers()) * bw * bh
	cost.MemDirect += int64(c.Layers()) * side * side
	return cost
}

// Image is an image distributed over PE memory under a Mapping: layer ℓ of
// Data holds, for every PE, the pixel stored at memory layer ℓ. Slots
// beyond the image border (when dimensions do not divide evenly) hold 0.
type Image struct {
	M    *Machine
	Map  Mapping
	Data [][]float32 // [mem][pe]
}

// Distribute loads g onto the machine under the mapping, charging one
// direct plural memory store per layer (the parallel disk array feeds all
// PEs concurrently; per-instruction cost is what SIMD time depends on).
// An error is returned when the image does not match the mapping's
// dimensions.
func Distribute(m *Machine, mp Mapping, g *grid.Grid) (*Image, error) {
	w, h := mp.Dims()
	if g.W != w || g.H != h {
		return nil, fmt.Errorf("maspar: image %dx%d does not match mapping %dx%d", g.W, g.H, w, h)
	}
	img := &Image{M: m, Map: mp, Data: make([][]float32, mp.Layers())}
	nproc := m.Cfg.NProc()
	for l := range img.Data {
		img.Data[l] = make([]float32, nproc)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pe, mem := mp.Place(x, y)
			img.Data[mem][pe] = g.AtUnchecked(x, y)
		}
	}
	m.ChargeMem(int64(mp.Layers()))
	return img, nil
}

// At returns the distributed pixel (x, y) — a test/debug accessor that
// bypasses cost accounting.
func (img *Image) At(x, y int) float32 {
	pe, mem := img.Map.Place(x, y)
	return img.Data[mem][pe]
}

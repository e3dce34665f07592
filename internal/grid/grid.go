// Package grid provides the dense 2-D raster type underlying all imagery in
// the SMA reproduction: satellite intensity images, stereo disparity maps,
// cloud-top height surfaces and per-pixel scalar fields such as the
// intensity-surface discriminant.
//
// A Grid stores float32 samples in row-major order. Out-of-bounds reads are
// served by edge clamping (the convention the paper's neighborhood operators
// need near image borders); writes are always bounds-checked.
package grid

import (
	"fmt"
	"math"
)

// Grid is a dense W×H raster of float32 samples in row-major order.
// The zero value is an empty grid; use New or FromSlice to construct one.
type Grid struct {
	W, H int
	Data []float32
}

// New returns a zero-filled grid of the given dimensions.
// It panics if either dimension is non-positive.
func New(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		//smavet:allow panicfree -- constructor invariant: non-positive dims are a programmer error, like a bad make() size
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	return &Grid{W: w, H: h, Data: make([]float32, w*h)}
}

// FromSlice wraps an existing row-major sample slice in a Grid.
// The slice is used directly (not copied); len(data) must equal w*h.
func FromSlice(w, h int, data []float32) *Grid {
	if len(data) != w*h {
		//smavet:allow panicfree -- constructor invariant: length mismatch is a programmer error, like a slice bounds fault
		panic(fmt.Sprintf("grid: FromSlice length %d != %d*%d", len(data), w, h))
	}
	return &Grid{W: w, H: h, Data: data}
}

// Clone returns a deep copy of g.
func (g *Grid) Clone() *Grid {
	out := New(g.W, g.H)
	copy(out.Data, g.Data)
	return out
}

// In reports whether (x, y) lies inside the grid.
func (g *Grid) In(x, y int) bool {
	return x >= 0 && x < g.W && y >= 0 && y < g.H
}

// At returns the sample at (x, y) with edge clamping: coordinates outside
// the grid are clamped to the nearest border pixel.
func (g *Grid) At(x, y int) float32 {
	if x < 0 {
		x = 0
	} else if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= g.H {
		y = g.H - 1
	}
	return g.Data[y*g.W+x]
}

// AtUnchecked returns the sample at (x, y) without bounds handling.
// The caller must guarantee 0 <= x < W and 0 <= y < H.
func (g *Grid) AtUnchecked(x, y int) float32 { return g.Data[y*g.W+x] }

// Set stores v at (x, y). Writes outside the grid are ignored.
func (g *Grid) Set(x, y int, v float32) {
	if !g.In(x, y) {
		return
	}
	g.Data[y*g.W+x] = v
}

// Row returns the y-th row as a subslice of the backing store.
func (g *Grid) Row(y int) []float32 {
	if y < 0 || y >= g.H {
		//smavet:allow panicfree -- hot-path bounds assertion, equivalent to the slice index fault it prevents
		panic(fmt.Sprintf("grid: row %d out of range [0,%d)", y, g.H))
	}
	return g.Data[y*g.W : (y+1)*g.W]
}

// Fill sets every sample to v.
//
//smavet:allow deadexport -- constant-field setup of the flow, quality, sequence and server tests
func (g *Grid) Fill(v float32) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// Apply replaces every sample s with f(s).
func (g *Grid) Apply(f func(float32) float32) {
	for i, v := range g.Data {
		g.Data[i] = f(v)
	}
}

// ApplyXY replaces every sample with f(x, y, s).
func (g *Grid) ApplyXY(f func(x, y int, v float32) float32) {
	i := 0
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			g.Data[i] = f(x, y, g.Data[i])
			i++
		}
	}
}

// AddScaled accumulates g += s*o elementwise. Grids must match in size.
//
//smavet:allow deadexport -- staged deletion with TestAddScaled (ROADMAP item 9)
func (g *Grid) AddScaled(o *Grid, s float32) {
	g.mustMatch(o)
	for i := range g.Data {
		g.Data[i] += s * o.Data[i]
	}
}

// Sub returns a new grid g - o.
//
//smavet:allow deadexport -- staged deletion with TestSubAndMismatchPanic (ROADMAP item 9)
func (g *Grid) Sub(o *Grid) *Grid {
	g.mustMatch(o)
	out := New(g.W, g.H)
	for i := range g.Data {
		out.Data[i] = g.Data[i] - o.Data[i]
	}
	return out
}

func (g *Grid) mustMatch(o *Grid) {
	if g.W != o.W || g.H != o.H {
		panic(fmt.Sprintf("grid: size mismatch %dx%d vs %dx%d", g.W, g.H, o.W, o.H))
	}
}

// MinMax returns the smallest and largest sample values.
// For an all-NaN grid it returns (+Inf, -Inf)-like extremes untouched by NaNs.
func (g *Grid) MinMax() (min, max float32) {
	min = float32(math.Inf(1))
	max = float32(math.Inf(-1))
	for _, v := range g.Data {
		if math.IsNaN(float64(v)) {
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Mean returns the arithmetic mean of all samples.
func (g *Grid) Mean() float64 {
	var s float64
	for _, v := range g.Data {
		s += float64(v)
	}
	return s / float64(len(g.Data))
}

// RMSDiff returns the root-mean-square difference between g and o.
func (g *Grid) RMSDiff(o *Grid) float64 {
	g.mustMatch(o)
	var s float64
	for i := range g.Data {
		d := float64(g.Data[i] - o.Data[i])
		s += d * d
	}
	return math.Sqrt(s / float64(len(g.Data)))
}

// Bilinear samples the grid at fractional coordinates with bilinear
// interpolation; coordinates outside the grid are edge-clamped.
func (g *Grid) Bilinear(x, y float64) float32 {
	if x < 0 {
		x = 0
	} else if x > float64(g.W-1) {
		x = float64(g.W - 1)
	}
	if y < 0 {
		y = 0
	} else if y > float64(g.H-1) {
		y = float64(g.H - 1)
	}
	x0 := int(x)
	y0 := int(y)
	x1 := x0 + 1
	y1 := y0 + 1
	if x1 >= g.W {
		x1 = g.W - 1
	}
	if y1 >= g.H {
		y1 = g.H - 1
	}
	fx := float32(x - float64(x0))
	fy := float32(y - float64(y0))
	v00 := g.Data[y0*g.W+x0]
	v10 := g.Data[y0*g.W+x1]
	v01 := g.Data[y1*g.W+x0]
	v11 := g.Data[y1*g.W+x1]
	top := v00 + fx*(v10-v00)
	bot := v01 + fx*(v11-v01)
	return top + fy*(bot-top)
}

// Gradient returns central-difference partial derivatives (∂/∂x, ∂/∂y)
// of the grid, edge-clamped at the borders.
func (g *Grid) Gradient() (gx, gy *Grid) {
	gx = New(g.W, g.H)
	gy = New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			gx.Data[y*g.W+x] = (g.At(x+1, y) - g.At(x-1, y)) / 2
			gy.Data[y*g.W+x] = (g.At(x, y+1) - g.At(x, y-1)) / 2
		}
	}
	return gx, gy
}

// Crop returns a copy of the w×h sub-rectangle anchored at (x0, y0).
// Pixels sampled outside g are edge-clamped.
func (g *Grid) Crop(x0, y0, w, h int) *Grid {
	out := New(w, h)
	g.CropInto(out.Data, x0, y0, w, h)
	return out
}

// CropInto is Crop into dst, row-major with stride w, allocating
// nothing; dst must hold at least w·h samples.
func (g *Grid) CropInto(dst []float32, x0, y0, w, h int) {
	for y := 0; y < h; y++ {
		row := dst[y*w : (y+1)*w]
		for x := range row {
			row[x] = g.At(x0+x, y0+y)
		}
	}
}

// Equal reports whether the grids have identical dimensions and samples.
func (g *Grid) Equal(o *Grid) bool {
	if g.W != o.W || g.H != o.H {
		return false
	}
	for i := range g.Data {
		if g.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

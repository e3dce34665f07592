package grid

// Pyramid is a coarse-to-fine multiresolution image pyramid as used by the
// Automatic Stereo Analysis substrate: Levels[0] is the full-resolution
// image and each subsequent level halves both dimensions (minimum 4 pixels).
type Pyramid struct {
	Levels []*Grid
}

// NewPyramid builds an n-level pyramid from g. Each coarser level is a
// Gaussian-smoothed (σ=1) 2× decimation of the previous one. Fewer levels
// are produced if the image becomes too small (< 8 pixels on a side).
func NewPyramid(g *Grid, n int) *Pyramid {
	p := &Pyramid{Levels: []*Grid{g}}
	cur := g
	for len(p.Levels) < n && cur.W >= 8 && cur.H >= 8 {
		cur = cur.Downsample2()
		p.Levels = append(p.Levels, cur)
	}
	return p
}

// Downsample2 returns g smoothed and decimated by a factor of two.
func (g *Grid) Downsample2() *Grid {
	s := g.GaussianBlur(1)
	w := g.W / 2
	h := g.H / 2
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	out := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Data[y*w+x] = s.At(2*x, 2*y)
		}
	}
	return out
}

// Upsample2 returns g bilinearly enlarged to w×h (typically twice the size).
// Values are scaled by `scale`, which callers use to double disparity
// estimates when promoting them to the next finer pyramid level.
func (g *Grid) Upsample2(w, h int, scale float32) *Grid {
	out := New(w, h)
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Data[y*w+x] = scale * g.Bilinear(float64(x)*sx, float64(y)*sy)
		}
	}
	return out
}

package grid

import "math"

// Convolve1DX convolves g with the 1-D kernel k along x (edge-clamped).
// The kernel is centered: k has odd length and k[len(k)/2] multiplies the
// pixel itself.
func (g *Grid) Convolve1DX(k []float32) *Grid {
	r := len(k) / 2
	out := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float32
			for i, kv := range k {
				s += kv * g.At(x+i-r, y)
			}
			out.Data[y*g.W+x] = s
		}
	}
	return out
}

// Convolve1DY convolves g with the 1-D kernel k along y (edge-clamped).
func (g *Grid) Convolve1DY(k []float32) *Grid {
	r := len(k) / 2
	out := New(g.W, g.H)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			var s float32
			for i, kv := range k {
				s += kv * g.At(x, y+i-r)
			}
			out.Data[y*g.W+x] = s
		}
	}
	return out
}

// GaussianKernel returns a normalized 1-D Gaussian kernel with the given
// standard deviation, truncated at ±3σ (minimum radius 1).
func GaussianKernel(sigma float64) []float32 {
	if sigma <= 0 {
		return []float32{1}
	}
	r := int(math.Ceil(3 * sigma))
	if r < 1 {
		r = 1
	}
	k := make([]float32, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = float32(v)
		sum += v
	}
	for i := range k {
		k[i] = float32(float64(k[i]) / sum)
	}
	return k
}

// GaussianBlur returns g smoothed by a separable Gaussian of the given σ.
func (g *Grid) GaussianBlur(sigma float64) *Grid {
	k := GaussianKernel(sigma)
	return g.Convolve1DX(k).Convolve1DY(k)
}

// BoxBlur returns g smoothed by an (2r+1)×(2r+1) box filter.
//
//smavet:allow deadexport -- staged deletion with TestBoxBlurReducesVariance and TestBoxBlurZeroRadiusClones (ROADMAP item 9)
func (g *Grid) BoxBlur(r int) *Grid {
	if r <= 0 {
		return g.Clone()
	}
	k := make([]float32, 2*r+1)
	for i := range k {
		k[i] = 1 / float32(len(k))
	}
	return g.Convolve1DX(k).Convolve1DY(k)
}

// Median3 returns g filtered with a 3×3 median — the motion-field
// post-processing extension mentioned in the paper's future work.
func (g *Grid) Median3() *Grid {
	out := New(g.W, g.H)
	var win [9]float32
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			i := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					win[i] = g.At(x+dx, y+dy)
					i++
				}
			}
			out.Data[y*g.W+x] = median9(win)
		}
	}
	return out
}

// median9 returns the median of 9 values via insertion sort on a copy.
func median9(w [9]float32) float32 {
	for i := 1; i < 9; i++ {
		v := w[i]
		j := i - 1
		for j >= 0 && w[j] > v {
			w[j+1] = w[j]
			j--
		}
		w[j+1] = v
	}
	return w[4]
}

package synth

import (
	"math"

	"sma/internal/grid"
)

// Scene is a synthetic time-varying cloud scene: a static texture advected
// through a steady flow. Because advection preserves brightness exactly,
// frames obey the same constancy assumption the paper's intensity-based
// matching relies on, and the inter-frame motion is known analytically.
type Scene struct {
	W, H  int
	Flow  Flow
	Tex   func(x, y float64) float64 // world texture, roughly [0, 1]
	ZGain float64                    // cloud-top height per unit intensity
}

// Frame renders the scene at time t (in frames) by backward advection:
// the intensity at pixel x is the texture at the particle's t=0 position.
func (s *Scene) Frame(t float64) *grid.Grid {
	g := grid.New(s.W, s.H)
	i := 0
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			fx, fy := float64(x), float64(y)
			dx, dy := 0.0, 0.0
			if t != 0 {
				dx, dy = Displace(s.Flow, fx, fy, -t)
			}
			g.Data[i] = float32(255 * s.Tex(fx+dx, fy+dy))
			i++
		}
	}
	return g
}

// Truth returns the exact displacement field carrying frame t to frame
// t+dt: Truth.At(x, y) is where the surface element at (x, y, t) moves.
func (s *Scene) Truth(dt float64) *grid.VectorField {
	f := grid.NewVectorField(s.W, s.H)
	i := 0
	for y := 0; y < s.H; y++ {
		for x := 0; x < s.W; x++ {
			dx, dy := Displace(s.Flow, float64(x), float64(y), dt)
			f.U.Data[i] = float32(dx)
			f.V.Data[i] = float32(dy)
			i++
		}
	}
	return f
}

// Height converts an intensity frame to a cloud-top height surface:
// brighter (colder, in IR terms inverted) clouds are higher. A mild blur
// mimics the smoothness of real cloud decks.
//
//smavet:allow deadexport -- staged deletion with TestHeightFollowsIntensity (ROADMAP item 9)
func (s *Scene) Height(frame *grid.Grid) *grid.Grid {
	z := frame.GaussianBlur(1.5)
	gain := s.ZGain
	if gain == 0 {
		gain = 0.05
	}
	g := float32(gain)
	z.Apply(func(v float32) float32 { return v * g })
	return z
}

// StereoPair synthesizes a rectified stereo pair from a left image and a
// disparity field: right(x, y) = left(x − d(x,y), y), so a matcher looking
// for left(x,y) ≈ right(x+d, y) recovers d. Returns the right image.
func StereoPair(left, disparity *grid.Grid) *grid.Grid {
	right := grid.New(left.W, left.H)
	i := 0
	for y := 0; y < left.H; y++ {
		for x := 0; x < left.W; x++ {
			d := float64(disparity.Data[i])
			right.Data[i] = left.Bilinear(float64(x)-d, float64(y))
			i++
		}
	}
	return right
}

// Hurricane returns a Frederic/Luis-style scene: a spiral cloud texture
// rotating around a vortex with radius-of-maximum-wind at w/6 and a slow
// westward drift. Peak winds move ~2 px/frame, within the paper's 13×13
// search window for consecutive frames.
func Hurricane(w, h int, seed int64) *Scene {
	n := NewNoise(seed)
	cx, cy := float64(w)/2, float64(h)/2
	rmax := float64(w) / 6
	return &Scene{
		W: w, H: h,
		Flow: Vortex{CX: cx, CY: cy, RMax: rmax, VMax: 2.0, DriftU: -0.3, DriftV: 0.1, Convergent: 0.15},
		Tex: func(x, y float64) float64 {
			dx, dy := x-cx, y-cy
			r := math.Hypot(dx, dy)
			theta := math.Atan2(dy, dx)
			// Logarithmic spiral banding modulated by multi-octave noise.
			band := 0.5 + 0.5*math.Cos(3*theta-0.15*r)
			tex := n.Octaves(x/14, y/14, 4, 0.55)
			eye := 1 - math.Exp(-r*r/(2*(rmax/3)*(rmax/3))) // dark eye
			return clamp01(0.25 + 0.5*tex*band*eye + 0.15*eye)
		},
		ZGain: 0.05,
	}
}

// Thunderstorm returns a GOES-9 Florida-style rapid-scan scene: a cluster
// of growing convective cells with divergent anvil outflow over a gentle
// steering flow. Rapid-scan intervals mean sub-pixel to ~1.5 px motions.
func Thunderstorm(w, h int, seed int64) *Scene {
	n := NewNoise(seed)
	cells := Cells{
		Centers: [][2]float64{
			{float64(w) * 0.35, float64(h) * 0.40},
			{float64(w) * 0.60, float64(h) * 0.55},
			{float64(w) * 0.50, float64(h) * 0.72},
		},
		Strength: 0.8,
		Sigma:    float64(w) / 10,
	}
	return &Scene{
		W: w, H: h,
		Flow: Sum{cells, Uniform{U: 0.4, V: -0.2}},
		Tex: func(x, y float64) float64 {
			base := n.Octaves(x/10, y/10, 5, 0.5)
			// Bright cores near the cell centers.
			var core float64
			for _, c := range cells.Centers {
				dx, dy := x-c[0], y-c[1]
				core += 0.6 * math.Exp(-(dx*dx+dy*dy)/(2*cells.Sigma*cells.Sigma))
			}
			return clamp01(0.2 + 0.5*base + core)
		},
		ZGain: 0.04,
	}
}

// ShearScene returns a simple sheared cloud deck — the minimal
// continuously deforming (non-rigid, non-fluid) test case.
func ShearScene(w, h int, seed int64) *Scene {
	n := NewNoise(seed)
	return &Scene{
		W: w, H: h,
		Flow: Shear{U0: 0.5, DUdY: 1.5 / float64(h), V: 0.2},
		Tex: func(x, y float64) float64 {
			return clamp01(0.15 + 0.7*n.Octaves(x/12, y/12, 4, 0.5))
		},
		ZGain: 0.05,
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Barbs picks n tracer pixels with the strongest local intensity gradient
// (visually trackable features), at least margin pixels from the border
// and minDist apart — the synthetic stand-in for the paper's 32 manually
// tracked wind-barb particles.
func Barbs(img *grid.Grid, n, margin, minDist int) []grid.Point {
	gx, gy := img.Gradient()
	type cand struct {
		p grid.Point
		s float32
	}
	var cands []cand
	for y := margin; y < img.H-margin; y++ {
		for x := margin; x < img.W-margin; x++ {
			s := gx.AtUnchecked(x, y)*gx.AtUnchecked(x, y) + gy.AtUnchecked(x, y)*gy.AtUnchecked(x, y)
			cands = append(cands, cand{grid.Point{X: x, Y: y}, s})
		}
	}
	// Selection sort of the top candidates with a spacing constraint keeps
	// this O(n·len) without pulling in sort for a strided comparator.
	var out []grid.Point
	used := make([]bool, len(cands))
	for len(out) < n {
		best := -1
		for i, c := range cands {
			if used[i] {
				continue
			}
			if best < 0 || c.s > cands[best].s {
				ok := true
				for _, q := range out {
					dx := c.p.X - q.X
					dy := c.p.Y - q.Y
					if dx*dx+dy*dy < minDist*minDist {
						ok = false
						break
					}
				}
				if ok {
					best = i
				} else {
					used[i] = true
				}
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		out = append(out, cands[best].p)
	}
	return out
}

package core

import (
	"fmt"

	"sma/internal/grid"
	"sma/internal/surface"
)

// Prepared holds the per-image differential geometry the tracker consumes:
// fitted surface geometry (normals, slopes, E, G) of the z-surfaces at
// both timesteps and the intensity-surface discriminant fields the
// semi-fluid mapping matches on. This is the paper's "Surface fit" +
// "Compute geometric variables" stage (Tables 2 and 4).
type Prepared struct {
	P      Params
	W, H   int
	G0, G1 *surface.Field // geometry of Z0 and Z1
	D0, D1 *grid.Grid     // intensity discriminants at t and t+1
	// Extra holds discriminant fields of additional spectral channels
	// (multispectral extension; empty unless the pair carries channels
	// and the semi-fluid model is active).
	Extra []ExtraChannel
}

// ExtraChannel is one prepared multispectral band: the discriminant fields
// the semi-fluid matcher compares.
type ExtraChannel struct {
	D0, D1 *grid.Grid
}

// Frame is one timestep of a tracked sequence: the intensity image and,
// for stereo runs, the surface (height/disparity) image driving the
// normal computation. Z == nil (or Z == I) marks the monocular mode where
// the intensity image is "treated as a digital surface" (paper §2).
// Frames are the unit of preparation in streaming multi-frame runs: frame
// t's surface fits are shared by the pairs (t−1, t) and (t, t+1).
type Frame struct {
	I *grid.Grid // intensity
	Z *grid.Grid // surface; nil falls back to I
	// Extra holds additional spectral channels (paper §6 multispectral
	// extension); order must agree across the frames of a sequence.
	Extra []*grid.Grid
}

// MonocularFrame wraps a single intensity image as a Frame, the intensity
// data standing in for the surface.
func MonocularFrame(i *grid.Grid) Frame { return Frame{I: i, Z: i} }

// Surface returns the grid driving the normal computation: Z, or I for
// monocular frames.
func (f Frame) Surface() *grid.Grid {
	if f.Z != nil {
		return f.Z
	}
	return f.I
}

// Validate checks presence and dimension agreement of the frame's images.
func (f Frame) Validate() error {
	if f.I == nil {
		return fmt.Errorf("core: frame has nil intensity image")
	}
	w, h := f.I.W, f.I.H
	if z := f.Z; z != nil && (z.W != w || z.H != h) {
		return fmt.Errorf("core: frame surface size %dx%d differs from intensity %dx%d", z.W, z.H, w, h)
	}
	for i, c := range f.Extra {
		if c == nil {
			return fmt.Errorf("core: frame extra channel %d is nil", i)
		}
		if c.W != w || c.H != h {
			return fmt.Errorf("core: frame extra channel %d size differs from primary", i)
		}
	}
	return nil
}

// Frames splits the pair into its two per-frame halves, the inputs of
// PrepareFrame.
func (p Pair) Frames() (f0, f1 Frame) {
	f0 = Frame{I: p.I0, Z: p.Z0}
	f1 = Frame{I: p.I1, Z: p.Z1}
	if len(p.Extra) > 0 {
		f0.Extra = make([]*grid.Grid, len(p.Extra))
		f1.Extra = make([]*grid.Grid, len(p.Extra))
		for i, c := range p.Extra {
			f0.Extra[i] = c.I0
			f1.Extra[i] = c.I1
		}
	}
	return f0, f1
}

// FramePrep is the per-frame half of Prepare: the fitted surface geometry
// of one timestep and, when the semi-fluid model is active, its intensity
// discriminant fields. In a streaming run each frame is prepared exactly
// once and its FramePrep reused by both pairs it participates in.
type FramePrep struct {
	P    Params
	W, H int
	G    *surface.Field
	D    *grid.Grid // nil when the continuous model is active
	// Extra holds per-channel discriminants, aligned with Frame.Extra.
	Extra []*grid.Grid
}

// PrepareFrame fits quadratic patches at every pixel of one frame: the
// surface image (radius NS) and, when the semi-fluid model is active, the
// intensity image (radius NST) plus any extra spectral channels. Preparing
// the two frames of a pair and assembling them is bit-identical to the
// fused Prepare.
func PrepareFrame(f Frame, p Params) (*FramePrep, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	zf, err := surface.NewFitter(p.NS)
	if err != nil {
		return nil, err
	}
	z := f.Surface()
	out := &FramePrep{P: p, W: f.I.W, H: f.I.H}
	out.G = zf.FitAll(z)
	if p.SemiFluid() {
		imf := zf
		if p.NST != p.NS {
			if imf, err = surface.NewFitter(p.NST); err != nil {
				return nil, err
			}
		}
		if f.I == z && p.NST == p.NS {
			out.D = out.G.D
		} else {
			out.D = imf.FitAll(f.I).D
		}
		for _, c := range f.Extra {
			out.Extra = append(out.Extra, imf.FitAll(c).D)
		}
	}
	return out, nil
}

// AssemblePair combines two prepared frames into the pair-level geometry
// the tracker consumes. The preparations must come from PrepareFrame runs
// with identical parameters, image sizes and channel counts.
func AssemblePair(f0, f1 *FramePrep) (*Prepared, error) {
	if f0 == nil || f1 == nil {
		return nil, fmt.Errorf("core: nil frame preparation")
	}
	if f0.P != f1.P {
		return nil, fmt.Errorf("core: frame preparations use different parameters: %+v vs %+v", f0.P, f1.P)
	}
	if f0.W != f1.W || f0.H != f1.H {
		return nil, fmt.Errorf("core: frame sizes differ: %dx%d vs %dx%d", f0.W, f0.H, f1.W, f1.H)
	}
	if len(f0.Extra) != len(f1.Extra) {
		return nil, fmt.Errorf("core: extra channel counts differ: %d vs %d", len(f0.Extra), len(f1.Extra))
	}
	out := &Prepared{
		P: f0.P, W: f0.W, H: f0.H,
		G0: f0.G, G1: f1.G,
		D0: f0.D, D1: f1.D,
	}
	for i := range f0.Extra {
		out.Extra = append(out.Extra, ExtraChannel{D0: f0.Extra[i], D1: f1.Extra[i]})
	}
	return out, nil
}

// Prepare fits quadratic patches at every pixel of the surface images
// (radius NS) and, when the semi-fluid model is active, of the intensity
// images (radius NST) to obtain discriminant fields. Four full-image fit
// passes, exactly as the paper counts them: "local surface patches are fit
// for each pixel in both the intensity and surface images at both time
// steps ... over one million separate Gaussian-eliminations" at 512².
//
// Prepare is the fused pair-at-a-time form; streaming callers use
// PrepareFrame once per frame and AssemblePair per adjacent pair, which
// yields bit-identical geometry while fitting shared frames only once.
func Prepare(pair Pair, p Params) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pair.Validate(); err != nil {
		return nil, err
	}
	f0, f1 := pair.Frames()
	p0, err := PrepareFrame(f0, p)
	if err != nil {
		return nil, err
	}
	p1, err := PrepareFrame(f1, p)
	if err != nil {
		return nil, err
	}
	return AssemblePair(p0, p1)
}

// PrepareFramePyramid is PrepareFrame behind the pyramid option's
// validation (pyramidLevels). The summed-window search it feeds needs no
// coarse levels, so the geometry is PrepareFrame's.
func PrepareFramePyramid(f Frame, p Params, levels int) (*FramePrep, error) {
	if err := pyramidLevels(p, levels); err != nil {
		return nil, err
	}
	return PrepareFrame(f, p)
}

// PreparePyramid is Prepare behind the pyramid option's validation; its
// geometry is Prepare's.
func PreparePyramid(pair Pair, p Params, levels int) (*Prepared, error) {
	if err := pyramidLevels(p, levels); err != nil {
		return nil, err
	}
	return Prepare(pair, p)
}

// pyramidLevels validates a pyramid level count: at least one, and the
// continuous model when the option is enabled (levels > 1).
func pyramidLevels(p Params, levels int) error {
	if levels < 1 {
		return fmt.Errorf("core: need at least one pyramid level, got %d", levels)
	}
	return PyramidOptions{Levels: levels}.Check(p)
}

// FitPasses reports how many full-image surface-fit passes Prepare runs
// for these parameters (used by the cost models).
func FitPasses(pair Pair, p Params) int {
	n := 2 // Z0, Z1
	if p.SemiFluid() {
		if !(pair.I0 == pair.Z0 && p.NST == p.NS) {
			n++
		}
		if !(pair.I1 == pair.Z1 && p.NST == p.NS) {
			n++
		}
		n += 2 * len(pair.Extra) // multispectral discriminant fits
	}
	return n
}

package grid

import "math"

// VectorField is a dense 2-D displacement field (U, V) in pixels, the
// output format of every motion estimator in this repository: the SMA
// tracker, the Horn–Schunck baseline and block matching.
type VectorField struct {
	U, V *Grid
}

// NewVectorField returns a zero displacement field of the given size.
func NewVectorField(w, h int) *VectorField {
	return &VectorField{U: New(w, h), V: New(w, h)}
}

// Bounds reports the field dimensions.
func (f *VectorField) Bounds() (w, h int) { return f.U.W, f.U.H }

// At returns the displacement at (x, y).
func (f *VectorField) At(x, y int) (u, v float32) {
	return f.U.At(x, y), f.V.At(x, y)
}

// Set stores displacement (u, v) at (x, y).
func (f *VectorField) Set(x, y int, u, v float32) {
	f.U.Set(x, y, u)
	f.V.Set(x, y, v)
}

// Clone returns a deep copy of the field.
func (f *VectorField) Clone() *VectorField {
	return &VectorField{U: f.U.Clone(), V: f.V.Clone()}
}

// RMSE returns the root-mean-square endpoint error against a reference
// field: sqrt(mean(|f - ref|²)) in pixels.
//
//smavet:allow deadexport -- accuracy metric of the flow, postproc and core tests
func (f *VectorField) RMSE(ref *VectorField) float64 {
	var s float64
	n := len(f.U.Data)
	for i := 0; i < n; i++ {
		du := float64(f.U.Data[i] - ref.U.Data[i])
		dv := float64(f.V.Data[i] - ref.V.Data[i])
		s += du*du + dv*dv
	}
	return math.Sqrt(s / float64(n))
}

// RMSEAt returns the RMS endpoint error over a sparse set of sample points,
// the comparison mode the paper uses against 32 manually tracked wind barbs.
func (f *VectorField) RMSEAt(ref *VectorField, pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	var s float64
	for _, p := range pts {
		u, v := f.At(p.X, p.Y)
		ru, rv := ref.At(p.X, p.Y)
		du := float64(u - ru)
		dv := float64(v - rv)
		s += du*du + dv*dv
	}
	return math.Sqrt(s / float64(len(pts)))
}

// MeanMagnitude returns the mean displacement magnitude in pixels.
func (f *VectorField) MeanMagnitude() float64 {
	var s float64
	n := len(f.U.Data)
	for i := 0; i < n; i++ {
		u := float64(f.U.Data[i])
		v := float64(f.V.Data[i])
		s += math.Hypot(u, v)
	}
	return s / float64(n)
}

// Equal reports whether two fields are sample-for-sample identical — used to
// check that the parallel (MasPar) implementation obtains exactly the same
// result as the sequential baseline, as the paper reports.
func (f *VectorField) Equal(o *VectorField) bool {
	return f.U.Equal(o.U) && f.V.Equal(o.V)
}

// Median3 returns the field with each component median-filtered 3×3
// (motion-field post-processing; paper §6 future work).
func (f *VectorField) Median3() *VectorField {
	return &VectorField{U: f.U.Median3(), V: f.V.Median3()}
}

// Point is an integer pixel coordinate.
type Point struct{ X, Y int }

// Warp resamples src by the field: out(x,y) = src(x+u, y+v) with bilinear
// interpolation. With a forward motion field (t→t+1 displacements) this
// pulls the t+1 image back into the t frame for verification.
func (f *VectorField) Warp(src *Grid) *Grid {
	w, h := f.Bounds()
	out := New(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u, v := f.At(x, y)
			out.Data[y*w+x] = src.Bilinear(float64(x)+float64(u), float64(y)+float64(v))
		}
	}
	return out
}

// Scale multiplies every displacement by s (in place) and returns f.
//
//smavet:allow deadexport -- staged deletion with TestVectorFieldScale (ROADMAP item 9)
func (f *VectorField) Scale(s float32) *VectorField {
	for i := range f.U.Data {
		f.U.Data[i] *= s
		f.V.Data[i] *= s
	}
	return f
}

// AngularError returns the mean angular error (degrees) between f and a
// reference field — the standard optical-flow accuracy metric of the
// era (Barron, Fleet & Beauchamp 1994): the angle between the
// space-time direction vectors (u, v, 1) of estimate and truth.
func (f *VectorField) AngularError(ref *VectorField) float64 {
	var sum float64
	n := len(f.U.Data)
	for i := 0; i < n; i++ {
		u1 := float64(f.U.Data[i])
		v1 := float64(f.V.Data[i])
		u2 := float64(ref.U.Data[i])
		v2 := float64(ref.V.Data[i])
		dot := u1*u2 + v1*v2 + 1
		m1 := math.Sqrt(u1*u1 + v1*v1 + 1)
		m2 := math.Sqrt(u2*u2 + v2*v2 + 1)
		c := dot / (m1 * m2)
		if c > 1 {
			c = 1
		} else if c < -1 {
			c = -1
		}
		sum += math.Acos(c)
	}
	return sum / float64(n) * 180 / math.Pi
}

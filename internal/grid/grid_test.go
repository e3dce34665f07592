package grid

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	g := New(7, 3)
	if g.W != 7 || g.H != 3 {
		t.Fatalf("dims = %dx%d, want 7x3", g.W, g.H)
	}
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromSliceWrapsWithoutCopy(t *testing.T) {
	d := []float32{1, 2, 3, 4, 5, 6}
	g := FromSlice(3, 2, d)
	g.Set(0, 0, 42)
	if d[0] != 42 {
		t.Fatal("FromSlice copied the slice; want aliasing")
	}
}

func TestFromSlicePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	FromSlice(2, 2, make([]float32, 3))
}

func TestAtEdgeClamping(t *testing.T) {
	g := New(3, 3)
	g.Set(0, 0, 1)
	g.Set(2, 2, 9)
	cases := []struct {
		x, y int
		want float32
	}{
		{-5, -5, 1}, {-1, 0, 1}, {0, -1, 1},
		{5, 5, 9}, {3, 2, 9}, {2, 3, 9},
	}
	for _, c := range cases {
		if got := g.At(c.x, c.y); got != c.want {
			t.Errorf("At(%d,%d) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestSetIgnoresOutOfBounds(t *testing.T) {
	g := New(2, 2)
	g.Set(-1, 0, 5)
	g.Set(0, 2, 5)
	for i, v := range g.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v after OOB writes, want 0", i, v)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(4, 4)
	g.Fill(3)
	c := g.Clone()
	c.Set(1, 1, 99)
	if g.At(1, 1) != 3 {
		t.Fatal("Clone shares backing store")
	}
}

func TestRow(t *testing.T) {
	g := New(3, 2)
	g.Set(1, 1, 7)
	if got := g.Row(1)[1]; got != 7 {
		t.Fatalf("Row(1)[1] = %v, want 7", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Row(2) on height-2 grid did not panic")
		}
	}()
	g.Row(2)
}

func TestMinMaxNormalize(t *testing.T) {
	g := New(2, 2)
	copy(g.Data, []float32{-1, 0, 3, 2})
	min, max := g.MinMax()
	if min != -1 || max != 3 {
		t.Fatalf("MinMax = %v,%v want -1,3", min, max)
	}
	g.Normalize(0, 1)
	min, max = g.MinMax()
	if min != 0 || max != 1 {
		t.Fatalf("after Normalize MinMax = %v,%v want 0,1", min, max)
	}
}

func TestNormalizeConstantGrid(t *testing.T) {
	g := New(2, 2)
	g.Fill(5)
	g.Normalize(0, 1)
	for _, v := range g.Data {
		if v != 0 {
			t.Fatalf("constant grid normalized to %v, want 0", v)
		}
	}
}

func TestBilinearInterpolatesExactly(t *testing.T) {
	g := New(2, 2)
	copy(g.Data, []float32{0, 1, 2, 3})
	cases := []struct {
		x, y float64
		want float32
	}{
		{0, 0, 0}, {1, 0, 1}, {0, 1, 2}, {1, 1, 3},
		{0.5, 0, 0.5}, {0, 0.5, 1}, {0.5, 0.5, 1.5},
	}
	for _, c := range cases {
		if got := g.Bilinear(c.x, c.y); math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("Bilinear(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestBilinearClampsOutside(t *testing.T) {
	g := New(2, 2)
	copy(g.Data, []float32{0, 1, 2, 3})
	if got := g.Bilinear(-3, -3); got != 0 {
		t.Errorf("Bilinear(-3,-3) = %v, want 0", got)
	}
	if got := g.Bilinear(10, 10); got != 3 {
		t.Errorf("Bilinear(10,10) = %v, want 3", got)
	}
}

func TestGradientOfLinearRamp(t *testing.T) {
	g := New(8, 8)
	g.ApplyXY(func(x, y int, _ float32) float32 { return float32(2*x + 3*y) })
	gx, gy := g.Gradient()
	// Interior pixels see the exact slope; borders are one-sided halves.
	for y := 1; y < 7; y++ {
		for x := 1; x < 7; x++ {
			if v := gx.At(x, y); math.Abs(float64(v-2)) > 1e-6 {
				t.Fatalf("gx(%d,%d) = %v, want 2", x, y, v)
			}
			if v := gy.At(x, y); math.Abs(float64(v-3)) > 1e-6 {
				t.Fatalf("gy(%d,%d) = %v, want 3", x, y, v)
			}
		}
	}
}

func TestCrop(t *testing.T) {
	g := New(4, 4)
	g.ApplyXY(func(x, y int, _ float32) float32 { return float32(y*4 + x) })
	c := g.Crop(1, 1, 2, 2)
	want := []float32{5, 6, 9, 10}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("Crop Data[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestRMSDiffAndMaxAbsDiff(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Fill(2)
	if got := a.RMSDiff(b); math.Abs(got-2) > 1e-9 {
		t.Fatalf("RMSDiff = %v, want 2", got)
	}
	if got := a.MaxAbsDiff(b); got != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", got)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		k := GaussianKernel(sigma)
		if len(k)%2 == 0 {
			t.Fatalf("σ=%v: even kernel length %d", sigma, len(k))
		}
		var sum float64
		for _, v := range k {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("σ=%v: kernel sum %v, want 1", sigma, sum)
		}
	}
}

func TestGaussianBlurPreservesConstant(t *testing.T) {
	g := New(9, 9)
	g.Fill(7)
	b := g.GaussianBlur(1.5)
	if d := g.MaxAbsDiff(b); d > 1e-4 {
		t.Fatalf("blur changed constant grid by %v", d)
	}
}

func TestBoxBlurReducesVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := New(32, 32)
	for i := range g.Data {
		g.Data[i] = rng.Float32()
	}
	b := g.BoxBlur(2)
	varOf := func(x *Grid) float64 {
		m := x.Mean()
		var s float64
		for _, v := range x.Data {
			d := float64(v) - m
			s += d * d
		}
		return s / float64(len(x.Data))
	}
	if varOf(b) >= varOf(g) {
		t.Fatal("box blur did not reduce variance of noise")
	}
}

func TestMedian3RemovesImpulse(t *testing.T) {
	g := New(5, 5)
	g.Fill(1)
	g.Set(2, 2, 100)
	m := g.Median3()
	if v := m.At(2, 2); v != 1 {
		t.Fatalf("median at impulse = %v, want 1", v)
	}
}

func TestPyramidLevelsAndSizes(t *testing.T) {
	g := New(64, 64)
	p := NewPyramid(g, 4)
	if len(p.Levels) != 4 {
		t.Fatalf("levels = %d, want 4", len(p.Levels))
	}
	for i, l := range p.Levels {
		want := 64 >> i
		if l.W != want || l.H != want {
			t.Fatalf("level %d is %dx%d, want %dx%d", i, l.W, l.H, want, want)
		}
	}
}

func TestPyramidStopsWhenTooSmall(t *testing.T) {
	g := New(16, 16)
	p := NewPyramid(g, 10)
	last := p.Levels[len(p.Levels)-1]
	if last.W < 4 || last.H < 4 {
		t.Fatalf("pyramid descended to %dx%d", last.W, last.H)
	}
}

func TestUpsample2ScalesValues(t *testing.T) {
	g := New(2, 2)
	g.Fill(3)
	u := g.Upsample2(4, 4, 2)
	for _, v := range u.Data {
		if v != 6 {
			t.Fatalf("upsampled value %v, want 6", v)
		}
	}
}

func TestPGMRoundTrip(t *testing.T) {
	g := New(13, 7)
	g.ApplyXY(func(x, y int, _ float32) float32 { return float32((x*31 + y*7) % 256) })
	var buf bytesBuffer
	if err := g.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPGM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != 13 || back.H != 7 {
		t.Fatalf("round trip dims %dx%d", back.W, back.H)
	}
	// WritePGM normalizes to 0..255; compare after normalizing both.
	gn := g.Clone()
	gn.Normalize(0, 255)
	if d := gn.MaxAbsDiff(back); d > 1.0 {
		t.Fatalf("round trip max diff %v > 1 grey level", d)
	}
}

func TestReadPGMASCIIWithComments(t *testing.T) {
	src := "P2\n# a comment\n3 2\n# another\n255\n0 10 20\n30 40 50\n"
	g, err := ReadPGM(stringReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.W != 3 || g.H != 2 || g.At(2, 1) != 50 {
		t.Fatalf("parsed %dx%d, At(2,1)=%v", g.W, g.H, g.At(2, 1))
	}
}

func TestReadPGMRejectsBadMagic(t *testing.T) {
	if _, err := ReadPGM(stringReader("P7\n1 1\n255\nx")); err == nil {
		t.Fatal("accepted bad magic")
	}
}

func TestReadPGMRejectsTruncatedBody(t *testing.T) {
	if _, err := ReadPGM(stringReader("P5\n4 4\n255\nab")); err == nil {
		t.Fatal("accepted truncated body")
	}
}

func TestVectorFieldRMSE(t *testing.T) {
	f := NewVectorField(4, 4)
	r := NewVectorField(4, 4)
	f.U.Fill(3)
	f.V.Fill(4)
	if got := f.RMSE(r); math.Abs(got-5) > 1e-6 {
		t.Fatalf("RMSE = %v, want 5", got)
	}
}

func TestVectorFieldRMSEAtSparsePoints(t *testing.T) {
	f := NewVectorField(8, 8)
	r := NewVectorField(8, 8)
	f.Set(2, 2, 1, 0)
	pts := []Point{{2, 2}}
	if got := f.RMSEAt(r, pts); math.Abs(got-1) > 1e-6 {
		t.Fatalf("RMSEAt = %v, want 1", got)
	}
	if got := f.RMSEAt(r, nil); got != 0 {
		t.Fatalf("RMSEAt(nil pts) = %v, want 0", got)
	}
}

func TestVectorFieldWarpRecoversTranslation(t *testing.T) {
	// img2 is img1 shifted by (+2, +1); the true forward field (u,v)=(2,1)
	// must pull img2 back onto img1.
	img1 := New(32, 32)
	img1.ApplyXY(func(x, y int, _ float32) float32 {
		return float32(math.Sin(float64(x)*0.4) * math.Cos(float64(y)*0.3))
	})
	img2 := New(32, 32)
	img2.ApplyXY(func(x, y int, _ float32) float32 {
		return img1.Bilinear(float64(x-2), float64(y-1))
	})
	f := NewVectorField(32, 32)
	f.U.Fill(2)
	f.V.Fill(1)
	back := f.Warp(img2)
	// Interior must match; borders are clamped.
	crop1 := img1.Crop(4, 4, 24, 24)
	cropB := back.Crop(4, 4, 24, 24)
	if d := crop1.MaxAbsDiff(cropB); d > 1e-4 {
		t.Fatalf("warp-back max diff %v", d)
	}
}

func TestVectorFieldEqualAndClone(t *testing.T) {
	f := NewVectorField(3, 3)
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Set(1, 1, 1, 0)
	if f.Equal(g) {
		t.Fatal("mutated clone still equal")
	}
}

func TestVectorFieldScale(t *testing.T) {
	f := NewVectorField(2, 2)
	f.U.Fill(1)
	f.V.Fill(-2)
	f.Scale(3)
	if u, v := f.At(0, 0); u != 3 || v != -6 {
		t.Fatalf("scaled to (%v,%v), want (3,-6)", u, v)
	}
}

// Property: Bilinear at integer coordinates equals At for any grid contents.
func TestPropertyBilinearMatchesAtOnLattice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(5, 4)
		for i := range g.Data {
			g.Data[i] = rng.Float32()*200 - 100
		}
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				if math.Abs(float64(g.Bilinear(float64(x), float64(y))-g.At(x, y))) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hierarchical crop/At clamping agrees with manual clamping.
func TestPropertyAtClampEquivalence(t *testing.T) {
	g := New(6, 5)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	f := func(x, y int8) bool {
		xi, yi := int(x), int(y)
		cx, cy := xi, yi
		if cx < 0 {
			cx = 0
		}
		if cx > 5 {
			cx = 5
		}
		if cy < 0 {
			cy = 0
		}
		if cy > 4 {
			cy = 4
		}
		return g.At(xi, yi) == g.AtUnchecked(cx, cy)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: median filter output values always come from the input's range.
func TestPropertyMedianWithinRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New(7, 7)
		for i := range g.Data {
			g.Data[i] = rng.Float32()*10 - 5
		}
		lo, hi := g.MinMax()
		m := g.Median3()
		mlo, mhi := m.MinMax()
		return mlo >= lo && mhi <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Helpers ------------------------------------------------------------------

type bytesBuffer = bytes.Buffer

func stringReader(s string) io.Reader { return strings.NewReader(s) }

// Normalize linearly rescales samples to [lo, hi]. A constant grid maps to lo.
func (g *Grid) Normalize(lo, hi float32) {
	min, max := g.MinMax()
	span := max - min
	if span == 0 {
		g.Fill(lo)
		return
	}
	scale := (hi - lo) / span
	for i, v := range g.Data {
		g.Data[i] = lo + (v-min)*scale
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference.
func (g *Grid) MaxAbsDiff(o *Grid) float64 {
	g.mustMatch(o)
	var m float64
	for i := range g.Data {
		d := math.Abs(float64(g.Data[i] - o.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

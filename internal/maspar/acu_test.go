package maspar

import (
	"testing"
	"time"
)

func TestACUAllActiveInitially(t *testing.T) {
	m := testMachine(4, 4)
	a := NewACU(m)
	if a.ActiveCount() != 16 || a.Depth() != 1 {
		t.Fatalf("initial state %v", a)
	}
}

func TestACUMaskedArithmetic(t *testing.T) {
	m := testMachine(2, 2)
	a := NewACU(m)
	x := NewPlural(m)
	y := NewPlural(m)
	dst := NewPlural(m)
	copy(x.V, []float32{1, 2, 3, 4})
	copy(y.V, []float32{10, 10, 10, 10})
	// Activate only PEs with x > 2.
	a.If(x, func(v float32) bool { return v > 2 })
	if a.ActiveCount() != 2 {
		t.Fatalf("active = %d, want 2", a.ActiveCount())
	}
	a.Add(dst, x, y)
	want := []float32{0, 0, 13, 14}
	for pe, w := range want {
		if dst.V[pe] != w {
			t.Fatalf("dst[%d] = %v, want %v (masked PEs must stay 0)", pe, dst.V[pe], w)
		}
	}
	a.EndIf()
	if a.ActiveCount() != 4 {
		t.Fatal("EndIf did not restore the mask")
	}
}

func TestACUElseComplementsWithinParent(t *testing.T) {
	m := testMachine(2, 2)
	a := NewACU(m)
	x := NewPlural(m)
	copy(x.V, []float32{1, 2, 3, 4})
	// Outer region: x >= 2 (PEs 1, 2, 3).
	a.If(x, func(v float32) bool { return v >= 2 })
	// Inner: x >= 3 (PEs 2, 3); else-branch must be {1} only — PE 0 is
	// outside the parent region and must stay inactive.
	a.If(x, func(v float32) bool { return v >= 3 })
	a.Else()
	if a.ActiveCount() != 1 || !a.Active()[1] {
		t.Fatalf("else mask wrong: %v", a.Active())
	}
	a.EndIf()
	a.EndIf()
}

func TestACUIfElseCostsBothBranches(t *testing.T) {
	// SIMD branch serialization: an if/else where each branch issues one
	// add must charge two add instructions (plus the compare).
	m := testMachine(2, 2)
	a := NewACU(m)
	x := NewPlural(m)
	dst := NewPlural(m)
	m.ResetCost()
	a.If(x, func(v float32) bool { return v > 0 })
	a.Add(dst, x, x)
	a.Else()
	a.Add(dst, x, x)
	a.EndIf()
	if m.Cost.PluralFlops != 3 { // 1 compare + 2 adds
		t.Fatalf("PluralFlops = %d, want 3 (both branches issue)", m.Cost.PluralFlops)
	}
}

func TestACUStencil4Laplacian(t *testing.T) {
	m := testMachine(4, 4)
	a := NewACU(m)
	src := NewPlural(m)
	dst := NewPlural(m)
	// A delta at PE (1,1): Laplacian = −4 at the delta, +1 at neighbors.
	src.V[1*4+1] = 1
	a.Stencil4(dst, src)
	if dst.V[1*4+1] != -4 {
		t.Fatalf("center = %v, want -4", dst.V[1*4+1])
	}
	for _, pe := range []int{0*4 + 1, 2*4 + 1, 1*4 + 0, 1*4 + 2} {
		if dst.V[pe] != 1 {
			t.Fatalf("neighbor %d = %v, want 1", pe, dst.V[pe])
		}
	}
	if dst.V[0] != 0 {
		t.Fatalf("corner = %v, want 0", dst.V[0])
	}
}

func TestACURejectsUnmatchedElse(t *testing.T) {
	m := testMachine(2, 2)
	a := NewACU(m)
	if err := a.Else(); err == nil {
		t.Fatal("Else without If accepted")
	}
	if err := a.EndIf(); err == nil {
		t.Fatal("EndIf without If accepted")
	}
}

func TestMPDATransferTime(t *testing.T) {
	d := DefaultMPDA()
	// 30 MB at 30 MB/s = 1 s.
	if got := d.TransferTime(30e6); got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("TransferTime(30MB) = %v, want ≈1s", got)
	}
	if d.TransferTime(-5) != 0 {
		t.Fatal("negative bytes should cost nothing")
	}
}

func TestMPDASequenceIOLuisScale(t *testing.T) {
	// The 490-frame GOES-9 run: reading 490 single-byte 512×512 frames and
	// writing 489 float32 U/V pairs is minutes, not hours — I/O does not
	// dominate the 49-hour compute.
	d := DefaultMPDA()
	io, err := d.SequenceIOTime(490, 512, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if io < 10*time.Second || io > 10*time.Minute {
		t.Fatalf("sequence I/O %v out of plausible range", io)
	}
	if _, err := d.SequenceIOTime(1, 512, 512, 1); err == nil {
		t.Fatal("single-frame sequence accepted")
	}
}

// Stencil4 computes the 4-neighbor Laplacian of src into dst under the
// current mask, dst = N+S+E+W − 4·src: a representative masked SIMD
// kernel, and the oracle the MPL interpreter's Laplacian is checked
// against.
func (a *ACU) Stencil4(dst, src *Plural) {
	tmp := NewPlural(a.M)
	acc := NewPlural(a.M)
	a.Move(acc, src)
	a.MulScalar(acc, acc, -4)
	for _, d := range []Direction{North, South, East, West} {
		a.ShiftInto(tmp, src, d)
		a.Add(acc, acc, tmp)
	}
	a.Move(dst, acc)
}

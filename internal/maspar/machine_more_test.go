package maspar

import (
	"testing"
	"time"
)

func TestDistributeRejectsSizeMismatch(t *testing.T) {
	m := testMachine(4, 4)
	mp := mustHier(m, 16, 16)
	if _, err := Distribute(m, mp, randGrid(8, 8, 1)); err == nil {
		t.Fatal("mismatched Distribute accepted")
	}
}

func TestNewRejectsBadPEArray(t *testing.T) {
	if _, err := New(Config{NYProc: 0, NXProc: 4}); err == nil {
		t.Fatal("New with zero PEs accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with zero PEs did not panic")
		}
	}()
	MustNew(Config{NYProc: 0, NXProc: 4})
}

func TestHierarchicalNonDividingDims(t *testing.T) {
	// 18×10 on 4×4 PEs: xvr = 5, yvr = 3; padded slots must not corrupt
	// the round trip.
	m := testMachine(4, 4)
	g := randGrid(18, 10, 7)
	mp := mustHier(m, 18, 10)
	if mp.XVR != 5 || mp.YVR != 3 {
		t.Fatalf("xvr=%d yvr=%d, want 5, 3", mp.XVR, mp.YVR)
	}
	img := mustDistribute(m, mp, g)
	if !img.Collect().Equal(g) {
		t.Fatal("non-dividing dims round trip failed")
	}
}

func TestCutStackNonDividingDims(t *testing.T) {
	m := testMachine(4, 4)
	g := randGrid(10, 6, 9)
	mp := mustCut(m, 10, 6)
	img := mustDistribute(m, mp, g)
	if !img.Collect().Equal(g) {
		t.Fatal("cut-stack non-dividing round trip failed")
	}
}

func TestAllocNegativeRejected(t *testing.T) {
	m := testMachine(2, 2)
	if err := m.Alloc("bad", -1); err == nil {
		t.Fatal("negative allocation accepted")
	}
}

func TestFreeUnknownIsNoop(t *testing.T) {
	m := testMachine(2, 2)
	m.Free("never-allocated")
	if m.MemUsed() != 0 {
		t.Fatal("Free of unknown name changed accounting")
	}
}

func TestResetCost(t *testing.T) {
	m := testMachine(2, 2)
	m.ChargeFlops(10)
	m.ChargeXNet(3)
	m.ResetCost()
	if m.Cost != (Cost{}) {
		t.Fatalf("ResetCost left %+v", m.Cost)
	}
}

func TestMachineTimeUsesOwnLedger(t *testing.T) {
	m := testMachine(2, 2)
	if m.Time() != 0 {
		t.Fatal("fresh machine has nonzero time")
	}
	m.ChargeFlops(1000)
	if m.Time() <= 0 {
		t.Fatal("charged machine has zero time")
	}
}

func TestScaledConfigTimeScale(t *testing.T) {
	// Per-PE behavior preserved: the same per-instruction cost on a small
	// machine as on the full one.
	full := DefaultConfig()
	small := ScaledConfig(8, 8)
	tFull := full.Time(Cost{PluralFlops: 100})
	tSmall := small.Time(Cost{PluralFlops: 100})
	diff := tFull - tSmall
	if diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("per-instruction time differs: %v vs %v", tFull, tSmall)
	}
}

func TestMemIndirectCharging(t *testing.T) {
	m := testMachine(2, 2)
	m.ChargeMemIndirect(100)
	direct := m.Cfg.Time(Cost{MemDirect: 100})
	indirect := m.Time()
	// Indirect plural memory is slower (10.6 vs 22.4 GB/s).
	if indirect <= direct {
		t.Fatalf("indirect %v not slower than direct %v", indirect, direct)
	}
}

func TestSnakeFetchCostMonotoneInRadius(t *testing.T) {
	m := MustNew(DefaultConfig())
	mp := mustHier(m, 512, 512)
	prev := Cost{}
	for r := 1; r <= 16; r *= 2 {
		c := SnakeFetchCost(mp, r)
		if c.XNetShifts <= prev.XNetShifts || c.MemDirect <= prev.MemDirect {
			t.Fatalf("snake cost not monotone at r=%d", r)
		}
		prev = c
	}
}

func TestRouterFetchCostScalesWithWindow(t *testing.T) {
	m := MustNew(DefaultConfig())
	mp := mustHier(m, 512, 512)
	c1 := RouterFetchCost(mp, 1)
	c2 := RouterFetchCost(mp, 2)
	if c2.RouterSends != c1.RouterSends*25/9 {
		t.Fatalf("router sends %d vs %d: want (2r+1)² scaling", c1.RouterSends, c2.RouterSends)
	}
}

func TestDirectionStringAll(t *testing.T) {
	want := []string{"N", "NE", "E", "SE", "S", "SW", "W", "NW"}
	for d := North; d <= NorthWest; d++ {
		if d.String() != want[d] {
			t.Fatalf("Direction(%d).String() = %q", int(d), d.String())
		}
	}
	if Direction(42).String() == "N" {
		t.Fatal("invalid direction aliased a real one")
	}
}

func TestBreakdownSharesSumToOne(t *testing.T) {
	cfg := DefaultConfig()
	cost := Cost{PluralFlops: 1000, MemDirect: 500, XNetShifts: 200, RouterSends: 10, ScalarOps: 5}
	b := cfg.Breakdown(cost)
	var sum float64
	for _, v := range b {
		if v < 0 || v > 1 {
			t.Fatalf("share out of range: %v", b)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
	if cfg.Breakdown(Cost{}) == nil {
		t.Fatal("empty ledger breakdown should be an empty map, not nil-dereference")
	}
}

func TestBreakdownComputeBoundFrederic(t *testing.T) {
	// The paper's Frederic run is overwhelmingly compute-bound: flops
	// must dominate the modeled breakdown.
	m := MustNew(DefaultConfig())
	mp := mustHier(m, 512, 512)
	_ = mp
	// The per-layer hypothesis-matching ledger: the full flop volume
	// against the six field fetches ModelRun charges.
	m.ChargeFlops(169 * 14641 * 180)
	for i := 0; i < 6; i++ {
		m.Cost.Add(mustFetchCost(mustHier(m, 512, 512), 60, RasterReadout))
	}
	b := m.Cfg.Breakdown(m.Cost)
	if b["flops"] < 0.9 {
		t.Fatalf("flops share %v, want > 0.9 (compute-bound)", b["flops"])
	}
}

func TestCostString(t *testing.T) {
	s := Cost{PluralFlops: 7, GaussianElims: 2}.String()
	if !containsAll(s, "flops=7", "gauss=2") {
		t.Fatalf("Cost.String() = %q", s)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

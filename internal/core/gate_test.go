package core

import (
	"errors"
	"math"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

func damagedGrid(size int, nan int, deadLines int) *grid.Grid {
	g := synth.Hurricane(size, size, 11).Frame(0)
	for i := 0; i < nan; i++ {
		g.Data[i*7%len(g.Data)] = float32(math.NaN())
	}
	for l := 0; l < deadLines; l++ {
		row := g.Row(2 + l)
		for x := range row {
			row[x] = 42
		}
	}
	return g
}

func TestScanDamageClean(t *testing.T) {
	r := grid.ScanDamage(synth.Hurricane(32, 32, 3).Frame(0))
	if r.BadPixels > 0 || r.DeadLines > 0 {
		t.Fatalf("clean synthetic frame reported damage: %+v", r)
	}
}

func TestScanDamageCounts(t *testing.T) {
	g := damagedGrid(32, 5, 3)
	r := grid.ScanDamage(g)
	if r.BadPixels != 5 {
		t.Errorf("BadPixels = %d, want 5", r.BadPixels)
	}
	if r.DeadLines != 3 {
		t.Errorf("DeadLines = %d, want 3", r.DeadLines)
	}
	if r.Pixels != 32*32 || r.Lines != 32 {
		t.Errorf("totals %d px %d lines, want %d/%d", r.Pixels, r.Lines, 32*32, 32)
	}
}

func TestScanDamageInfAndNaNRow(t *testing.T) {
	g := grid.New(8, 4)
	g.Row(1)[3] = float32(math.Inf(1))
	nanRow := g.Row(2)
	for x := range nanRow {
		nanRow[x] = float32(math.NaN())
	}
	r := grid.ScanDamage(g)
	if r.BadPixels != 1+8 {
		t.Errorf("BadPixels = %d, want 9", r.BadPixels)
	}
	// The all-NaN row is bad pixels, not a dead line; rows 0 and 3 are
	// constant-zero and count as dead.
	if r.DeadLines != 2 {
		t.Errorf("DeadLines = %d, want 2 (the constant-zero rows)", r.DeadLines)
	}
}

func TestQualityGateStrictZeroValue(t *testing.T) {
	var gate QualityGate
	if err := gate.Check(MonocularFrame(synth.Hurricane(24, 24, 5).Frame(0))); err != nil {
		t.Fatalf("strict gate rejected a clean frame: %v", err)
	}
	err := gate.Check(MonocularFrame(damagedGrid(24, 1, 0)))
	var de *DamageError
	if !errors.As(err, &de) {
		t.Fatalf("gate error = %v, want *DamageError", err)
	}
	if de.Report.BadPixels != 1 {
		t.Errorf("DamageError reports %d bad pixels, want 1", de.Report.BadPixels)
	}
}

func TestQualityGateThresholds(t *testing.T) {
	g := damagedGrid(32, 4, 2) // 4/1024 bad, 2/32 dead
	lenient := QualityGate{MaxBadFrac: 0.01, MaxDeadLineFrac: 0.1}
	if err := lenient.Check(MonocularFrame(g)); err != nil {
		t.Errorf("lenient gate rejected within-budget damage: %v", err)
	}
	strictPixels := QualityGate{MaxBadFrac: 0.001, MaxDeadLineFrac: 1}
	if err := strictPixels.Check(MonocularFrame(g)); err == nil {
		t.Error("pixel-strict gate accepted over-budget NaN damage")
	}
	strictLines := QualityGate{MaxBadFrac: 1, MaxDeadLineFrac: 0.01}
	if err := strictLines.Check(MonocularFrame(g)); err == nil {
		t.Error("line-strict gate accepted over-budget dead scanlines")
	}
	disabled := QualityGate{MaxBadFrac: 1, MaxDeadLineFrac: 1}
	if err := disabled.Check(MonocularFrame(g)); err != nil {
		t.Errorf("disabled gate rejected a frame: %v", err)
	}
}

func TestQualityGateChecksSurfaceAndChannels(t *testing.T) {
	var gate QualityGate
	clean := synth.Hurricane(16, 16, 9).Frame(0)
	bad := damagedGrid(16, 2, 0)

	if err := gate.Check(Frame{I: clean, Z: bad}); err == nil {
		t.Error("gate missed damage in the surface image")
	}
	if err := gate.Check(Frame{I: clean, Z: clean, Extra: []*grid.Grid{bad}}); err == nil {
		t.Error("gate missed damage in an extra channel")
	}
}

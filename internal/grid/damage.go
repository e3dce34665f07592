package grid

import "math"

// DamageReport counts the pixel-level damage patterns real satellite
// feeds carry: non-finite samples (NaN/Inf from calibration glitches or
// deliberate missing-data markers) and dead scanlines (rows left constant
// by a dropped or stuck detector sweep). It is the raw material of
// core.QualityGate's accept/reject decision.
type DamageReport struct {
	Pixels    int // total samples scanned
	BadPixels int // NaN or ±Inf samples
	Lines     int // total rows scanned
	DeadLines int // rows whose finite samples are all identical (W >= 2)
}

// BadFrac is the fraction of non-finite samples.
func (r DamageReport) BadFrac() float64 {
	if r.Pixels == 0 {
		return 0
	}
	return float64(r.BadPixels) / float64(r.Pixels)
}

// DeadLineFrac is the fraction of dead rows.
func (r DamageReport) DeadLineFrac() float64 {
	if r.Lines == 0 {
		return 0
	}
	return float64(r.DeadLines) / float64(r.Lines)
}

// ScanDamage scans the grid for non-finite samples and dead scanlines.
// A row counts as dead only when it is at least two samples wide, fully
// finite, and every sample equals the first — the signature of a dropped
// or repeated detector sweep rather than smooth imagery.
func ScanDamage(g *Grid) DamageReport {
	r := DamageReport{Pixels: g.W * g.H, Lines: g.H}
	for y := 0; y < g.H; y++ {
		row := g.Row(y)
		bad := 0
		dead := len(row) >= 2
		for _, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				bad++
				dead = false
			} else if v != row[0] {
				dead = false
			}
		}
		r.BadPixels += bad
		if dead && bad == 0 {
			r.DeadLines++
		}
	}
	return r
}

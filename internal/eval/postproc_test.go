package eval

import (
	"strings"
	"testing"
)

func TestPostprocExperimentRowsAndSanity(t *testing.T) {
	rows, err := PostprocExperiment(48, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.RMSE < 0 || r.RMSE > 2 {
			t.Fatalf("%s RMSE %v out of plausible range", r.Name, r.RMSE)
		}
		byName[r.Name] = r.RMSE
	}
	// Post-processing must not substantially worsen an already decent
	// field (small tolerance for the smoothing bias at motion gradients).
	raw := byName["raw"]
	for _, name := range []string{"median 3x3", "relaxation labeling", "confidence smoothing"} {
		if byName[name] > raw*1.25 {
			t.Fatalf("%s RMSE %v much worse than raw %v", name, byName[name], raw)
		}
	}
}

// TestMaskedQuiverHasClearRegions checks Figure 6's presentation: the
// quiver shows clear sky as dots and motion only over clouds.
func TestMaskedQuiverHasClearRegions(t *testing.T) {
	steps, err := Figure6(48, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := steps[0].Quiver
	if !strings.Contains(q, "·") {
		t.Fatal("masked quiver shows no clear-sky pixels")
	}
	hasArrow := false
	for _, r := range "→↗↑↖←↙↓↘" {
		if strings.ContainsRune(q, r) {
			hasArrow = true
			break
		}
	}
	if !hasArrow {
		t.Fatal("masked quiver shows no motion over clouds")
	}
}

func TestLuisIncludesIO(t *testing.T) {
	l, err := Luis()
	if err != nil {
		t.Fatal(err)
	}
	if l.SequenceIO <= 0 {
		t.Fatal("no modeled MPDA I/O")
	}
	// I/O must be negligible next to compute (the paper streams 490
	// frames through the MPDA precisely because it keeps up).
	if float64(l.SequenceIO) > 0.01*float64(l.TotalModel) {
		t.Fatalf("I/O %v suspiciously large vs compute %v", l.SequenceIO, l.TotalModel)
	}
}

func TestBaselineComparisonOrdering(t *testing.T) {
	rows, err := BaselineComparison(56, 11)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]BaselineRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	semi := byName["SMA semi-fluid"]
	cont := byName["SMA continuous"]
	hs := byName["Horn-Schunck [2]"]
	// SMA recovers exact per-layer correspondences where the smoothed
	// baseline cannot ("usual optical flow methods" impose the global
	// continuity the scene violates).
	if semi.ExactPct <= hs.ExactPct {
		t.Fatalf("semi-fluid exact %.1f%% not above Horn-Schunck %.1f%%", semi.ExactPct, hs.ExactPct)
	}
	if semi.ExactPct <= cont.ExactPct {
		t.Fatalf("semi-fluid exact %.1f%% not above continuous %.1f%%", semi.ExactPct, cont.ExactPct)
	}
	if semi.ExactPct < 30 {
		t.Fatalf("semi-fluid exact fraction %.1f%% implausibly low", semi.ExactPct)
	}
}

func TestEddiesExperiment(t *testing.T) {
	r, err := EddiesExperiment(64, 13)
	if err != nil {
		t.Fatal(err)
	}
	if r.RMSE >= 1.0 {
		t.Fatalf("eddies RMSE %.3f px, want < 1 (paper's accuracy regime)", r.RMSE)
	}
	if r.ExactPct < 50 {
		t.Fatalf("eddies exact fraction %.1f%% too low", r.ExactPct)
	}
}

func TestFissionExperiment(t *testing.T) {
	r, err := FissionExperiment(64, 17)
	if err != nil {
		t.Fatal(err)
	}
	if r.RMSE >= 1.2 {
		t.Fatalf("fission RMSE %.3f px on cell bodies", r.RMSE)
	}
	if r.ExactPct < 40 {
		t.Fatalf("fission exact fraction %.1f%%", r.ExactPct)
	}
}

func TestIceFloesExperiment(t *testing.T) {
	r, err := IceFloesExperiment(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.RMSE >= 1.0 {
		t.Fatalf("sea-ice RMSE %.3f px on floes", r.RMSE)
	}
	if r.ExactPct < 55 {
		t.Fatalf("sea-ice exact fraction %.1f%%", r.ExactPct)
	}
}

func TestTemplateAccuracySweep(t *testing.T) {
	pts, err := TemplateAccuracySweep(56, 5, []int{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	// Cost grows with the window, and the trade-off the paper's 121×121
	// choice reflects appears: tiny templates are noisy, larger ones reach
	// the sub-pixel regime.
	for i, p := range pts {
		if i > 0 && p.PerPixel <= pts[i-1].PerPixel {
			t.Fatal("modeled cost not increasing with template size")
		}
	}
	if pts[len(pts)-1].RMSE >= 1.0 {
		t.Fatalf("largest window RMSE %.3f px, want sub-pixel", pts[len(pts)-1].RMSE)
	}
	if pts[len(pts)-1].RMSE > pts[0].RMSE {
		t.Fatalf("accuracy did not improve with template size: %.3f → %.3f",
			pts[0].RMSE, pts[len(pts)-1].RMSE)
	}
}

func TestWriteReport(t *testing.T) {
	var buf strings.Builder
	if err := WriteReport(&buf, 56, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 2", "Hypothesis matching", "Speedup", "wind-barb",
		"Baseline comparison", "Application domains", "ablations",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestPlumeRobustness(t *testing.T) {
	rows, err := PlumeRobustness(56, 7, []float64{0, 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Crisp tracking is sub-pixel; diffusion degrades but does not destroy
	// it (the tracker matches structure, not raw brightness).
	if rows[0].RMSE >= 0.9 {
		t.Fatalf("crisp plume RMSE %.3f px", rows[0].RMSE)
	}
	if rows[1].RMSE < rows[0].RMSE {
		t.Fatalf("diffusion improved accuracy?! %.3f vs %.3f", rows[1].RMSE, rows[0].RMSE)
	}
	if rows[1].RMSE > 2.0 {
		t.Fatalf("diffused plume RMSE %.3f px — tracker collapsed", rows[1].RMSE)
	}
}

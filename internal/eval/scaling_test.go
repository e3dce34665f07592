package eval

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestScalingExperimentShape runs a tiny scaling study and checks its
// structural invariants: one strong and one weak point per worker count,
// weak sizes growing ∝ √workers, positive timings, anchored speedups,
// bit-identity, and the BENCH_scaling.json field names.
func TestScalingExperimentShape(t *testing.T) {
	r, err := ScalingExperiment(context.Background(), 16, []int{1, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strong) != 2 || len(r.Weak) != 2 {
		t.Fatalf("want 2 strong + 2 weak points, got %d + %d", len(r.Strong), len(r.Weak))
	}
	if !r.BitIdentical {
		t.Fatal("parallel driver not bit-identical to reference")
	}
	for i, pt := range r.Strong {
		if pt.Sec <= 0 || pt.Pixels != 256 || pt.Size != 16 {
			t.Fatalf("strong[%d] malformed: %+v", i, pt)
		}
	}
	if r.Weak[0].Size != 16 || r.Weak[1].Size != 23 { // round(16·√2)
		t.Fatalf("weak sizes %d, %d; want 16, 23", r.Weak[0].Size, r.Weak[1].Size)
	}
	if r.Strong[0].Speedup != 1 || r.Strong[0].Efficiency != 1 {
		t.Fatalf("workers=1 strong point must anchor at speedup 1, got %+v", r.Strong[0])
	}
	if r.GoMaxProcs < 1 {
		t.Fatalf("gomaxprocs %d", r.GoMaxProcs)
	}

	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"gomaxprocs", "serial_sec", "parallel_beats_serial",
		"best_strong_sec", "strong", "weak", "bit_identical",
	} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("JSON missing %q:\n%s", key, data)
		}
	}
	if !strings.Contains(string(data), `"name": "scaling"`) {
		t.Fatalf("unexpected name field:\n%s", data)
	}
}

// TestScalingExperimentRejectsTinyInput mirrors the throughput
// experiment's guard: the template+search footprint needs room.
func TestScalingExperimentRejectsTinyInput(t *testing.T) {
	if _, err := ScalingExperiment(context.Background(), 4, nil, 1); err == nil {
		t.Fatal("size 4 should be rejected")
	}
}

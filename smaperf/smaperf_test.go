package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

func TestTailLatency(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		report bool
	}{
		{n: 0},
		{n: 19}, // p50 would have 9 samples beyond it
		{n: 20, pct: 50, value: 10, report: true},
		{n: 39, pct: 50, value: 20, report: true},
		{n: 40, pct: 75, value: 30, report: true},
		{n: 100, pct: 90, value: 90, report: true},
		{n: 1000, pct: 99, value: 990, report: true},
		{n: 10000, pct: 99.9, value: 9990, report: true},
	} {
		pct, v, ok := tailLatency(seq(tc.n))
		if ok != tc.report || pct != tc.pct || v != tc.value {
			t.Errorf("n=%d: got p%g=%g ok=%v, want p%g=%g ok=%v", tc.n, pct, v, ok, tc.pct, tc.value, tc.report)
		}
		if ok {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: p%g has %d samples beyond it, want >= %d", tc.n, pct, beyond, minBeyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestCalibration(t *testing.T) {
	if got := hostScale(nil); got != 1 {
		t.Errorf("hostScale(nil) = %g, want 1", got)
	}
	if got := hostScale([]float64{30, 10, 20}); got != 20/calibRefMs { // the mean
		t.Errorf("hostScale = %g, want %g", got, 20/calibRefMs)
	}
	one, _, err := calibrateAfter(0, 1)
	if err != nil || len(one) != 1 || one[0] <= 0 {
		t.Fatalf("calibrateAfter(0) = %v, %v; want one positive sample", one, err)
	}
	// A long op buys calibMaxCalls calls at most.
	for _, par := range []int{1, 2} {
		many, cpu, err := calibrateAfter(time.Hour, par)
		if err != nil || len(many) != calibMaxCalls || cpu <= 0 {
			t.Fatalf("calibrateAfter(1h, %d) = %d samples, cpu %v, %v; want %d", par, len(many), cpu, err, calibMaxCalls)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two children that overlap each other: the union is 10..60.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},
		// A grandchild nested in a: only a's self time shrinks.
		{ID: 4, Parent: 2, Name: "c", Start: 20 * ms, End: 25 * ms},
		// A child running past its parent's end is clipped to the parent.
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 150 * ms},
		// Children covering their whole parent twice over.
		{ID: 6, Name: "busy", Start: 200 * ms, End: 210 * ms},
		{ID: 7, Parent: 6, Name: "x", Start: 195 * ms, End: 210 * ms},
		{ID: 8, Parent: 6, Name: "y", Start: 200 * ms, End: 220 * ms},
		// An unfinished span counts for nothing.
		{ID: 9, Parent: 1, Name: "open", Start: 70 * ms, End: -1},
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{1: 40 * ms, 2: 35 * ms, 3: 30 * ms, 4: 5 * ms, 5: 60 * ms, 6: 0, 7: 15 * ms, 8: 20 * ms, 9: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
	for id, d := range self {
		if d < 0 {
			t.Errorf("span %d has negative self time %v", id, d)
		}
	}
	if got := unionDur(spans[1:3]); got != 50*ms {
		t.Errorf("union of overlapping spans = %v, want 50ms", got)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				id := tr.Begin("s", int64(g), 0)
				tr.SetKey(id, "k")
				tr.End(id)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	spans := tr.Spans()
	if len(spans) != 400 {
		t.Fatalf("recorded %d spans, want 400", len(spans))
	}
	for id, d := range SelfTimes(spans) {
		if d < 0 {
			t.Fatalf("span %d has negative self time", id)
		}
	}
	var nilTracer *Tracer
	nilTracer.End(nilTracer.Begin("x", 1, 0))
	if nilTracer.Spans() != nil {
		t.Fatal("a nil tracer recorded spans")
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json's workloads and
// metric lists in step with what the benchmark runs and prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	check := func(list string, got []struct{ Name, Unit string }, want []namedUnit) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, the benchmark %d", len(got), list, len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), the benchmark prints %s (%s)", list, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

// smokeConfig is a short run at a small frame size with one set-up.
func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 3, seconds: 300 * time.Millisecond, trace: trace,
		root: t.TempDir(), size: 32, setupReps: 1, pool: 1}
}

// TestSmokeWorkloads runs every workload briefly, untraced, and checks
// that each prints every end-to-end metric.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res, err := run(context.Background(), smokeConfig(t, name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value", m.name, v)
				}
			}
		})
	}
}

// TestTracedCountersRepeat runs every workload traced twice with the same
// seed: the exact counters must agree, and carry the values the workloads
// are defined by.
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers")
	}
	want := map[string]map[string]float64{
		"track-semifluid": {"core.hyp_per_px": 25, "cluster.dispatch_retries": 0, "stream.fit_reuse_frac": 0},
		"jobs-luis":       {"core.hyp_per_px": 81, "core.semimap_bytes": 0, "core.semimap_ms": 0, "stream.fit_reuse_frac": 3.0 / 8},
		"cluster-pyramid": {"core.semimap_bytes": 0, "core.semimap_ms": 0, "cluster.shards_per_job": 4, "cluster.dispatch_retries": 0, "stream.fit_reuse_frac": 1.0 / 4},
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				res, err := run(context.Background(), smokeConfig(t, name, true), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
			}
			for _, m := range perLayer {
				if _, ok := runs[0].metrics[m.name]; !ok {
					t.Errorf("traced run lacks %s", m.name)
				}
			}
			for _, c := range exactCounters {
				if a, b := runs[0].counters[c], runs[1].counters[c]; a != b {
					t.Errorf("%s differs between runs: %g vs %g", c, a, b)
				}
			}
			for c, v := range want[name] {
				if got := runs[0].metrics[c].Value; got != v {
					t.Errorf("%s = %g, want %g", c, got, v)
				}
			}
		})
	}
}

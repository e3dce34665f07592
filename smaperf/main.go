// Command smaperf is the repository benchmark. It runs one named workload
// against in-process servers on loopback HTTP, from a single process,
// verifies every output byte for byte against references it computes
// during set-up, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output. See README.md.
//
//	go run . --workload track-semifluid --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// root is the checkout the run writes its build-directory files under.
	root string
	// Knobs the self-tests turn down; the command line keeps the defaults.
	size      int // frame edge in pixels
	setupReps int // set-ups timed for setup_s, at least
	// setupBudget adds set-ups beyond setupReps, up to maxSetupReps, while
	// the set-ups so far took less than this in total: cheap set-ups are
	// timed more often, so their median steadies.
	setupBudget time.Duration
	pool        int // distinct inputs per workload (0 = the workload's default)
}

// buildDir holds everything a run leaves behind, relative to the checkout.
const buildDir = ".bench_build"

// maxSetupReps caps the set-ups one run times.
const maxSetupReps = 9

func main() {
	cfg := config{root: ".", size: 64, setupReps: 3, setupBudget: 4 * time.Second}
	var secs, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are rendered from")
	flag.IntVar(&secs, "seconds", 25, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace != 0

	// The whole run, build excluded, must end within 180 s.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smaperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "smaperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the untraced run's metrics in BENCHMARK.json order.
var endToEnd = []namedUnit{
	{"setup_s", "s"},
	{"throughput_pairs_per_s", "pairs/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_pair", "ms"},
	{"peak_rss_mb", "MiB"},
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	// counters holds the exact per-layer counts the self-tests compare.
	counters map[string]float64
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.attempted, r.failed, r.metrics}
}

// errMismatch marks a response that differs from its reference.
var errMismatch = errors.New("output mismatch")

// run executes one invocation: render inputs and references, time the
// set-up, measure, and compute the metrics. A byte mismatch anywhere is an
// error.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	dataRoot, err := filepath.Abs(filepath.Join(cfg.root, buildDir, "data", fmt.Sprintf("%s-%d-%d", cfg.workload, os.Getpid(), time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)
	meta := newHostMeta(cfg, dataRoot)
	fmt.Fprintf(out, "smaperf workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace)

	t0 := time.Now()
	if err := w.render(ctx); err != nil {
		return nil, fmt.Errorf("rendering references: %w", err)
	}
	fmt.Fprintf(out, "references: rendered in %.2fs\n", time.Since(t0).Seconds())

	r := &runner{w: w, out: out, meta: &meta}
	defer func() {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				fmt.Fprintln(os.Stderr, "smaperf: shutting down:", err)
			}
		}
	}()
	setupS, setupScale, err := r.setups(ctx, cfg, dataRoot)
	if err != nil {
		return nil, err
	}

	res := &result{metrics: map[string]metric{}}
	if !cfg.trace {
		ph, err := r.phase(ctx, "timed", cfg.seconds, nil, r.httpOp)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = ph.sent, ph.failed
		// Times are reported on the reference host (see calib.go).
		scale := hostScale(ph.calib)
		cpuPerPair := ms(ph.cpu) / float64(max(ph.pairs, 1))
		vals := map[string]float64{
			"setup_s":                setupS / setupScale,
			"throughput_pairs_per_s": ph.rate * scale,
			"latency_p50_ms":         median(ph.lat) / scale,
			"cpu_ms_per_pair":        cpuPerPair / scale,
			"peak_rss_mb":            peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Fprintf(out, "host scale %.4f in the timed phase (%d calibration kernel calls, reference %g ms), %.4f in the set-ups\n",
			scale, len(ph.calib), calibRefMs, setupScale)
		fmt.Fprintf(out, "as measured: setup_s=%.4f throughput_pairs_per_s=%.4f latency_p50_ms=%.3f cpu_ms_per_pair=%.3f\n",
			setupS, ph.rate, median(ph.lat), cpuPerPair)
		r.reportTail(ph, scale)
	} else {
		if err := r.traced(ctx, cfg, dataRoot, res); err != nil {
			return nil, err
		}
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "meta %s\n", mj)
	return res, nil
}

// runner drives one workload's phases against its live system.
type runner struct {
	w    workload
	out  io.Writer
	meta *hostMeta
	sys  *system
	// tracer is what the program-side handler wrappers record into; nil
	// outside the traced phase.
	tracer atomic.Pointer[Tracer]
	nextOp atomic.Int64
}

// setups times the program's own set-up plus one warm-up op at least
// cfg.setupReps times, and more while the budget lasts, each in a fresh
// data directory, calibrating after each. It keeps the last system
// running and returns the median time and the host scale.
func (r *runner) setups(ctx context.Context, cfg config, dataRoot string) (float64, float64, error) {
	var times, calib []float64
	var total float64
	ph := &phase{name: "setup"}
	for i := 0; i < max(cfg.setupReps, 1) || (total < cfg.setupBudget.Seconds() && i < maxSetupReps); i++ {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return 0, 0, err
			}
			r.sys = nil
		}
		t0 := time.Now()
		sys, err := r.w.setup(ctx, filepath.Join(dataRoot, fmt.Sprintf("server%d", i)), &r.tracer)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		r.sys = sys
		ph.sent++
		o := r.w.op(ctx, sys, int(r.nextOp.Add(1)), opTrace{})
		if o.mismatch != nil {
			return 0, 0, o.mismatch
		}
		if o.err != nil {
			return 0, 0, fmt.Errorf("warm-up op: %w", o.err)
		}
		ph.ok++
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += times[i]
		samples, _, err := calibrateAfter(d, r.w.parallelism())
		if err != nil {
			return 0, 0, err
		}
		calib = append(calib, samples...)
	}
	r.report(ph)
	return median(times), hostScale(calib), nil
}

// httpOp is one end-to-end op against the running system.
func (r *runner) httpOp(ctx context.Context, k int, ot opTrace) opOutcome {
	return r.w.op(ctx, r.sys, k, ot)
}

// phase is one closed-loop measurement.
type phase struct {
	name                 string
	sent, ok, failed     int
	retries              int
	pairs                int
	lat                  []float64 // ms, successful ops
	calib                []float64 // ms, calibration kernel calls between ops
	rate                 float64   // pairs/s summed over clients
	cpu                  time.Duration
	shards, dispatchRetr int64
}

// phase runs a closed loop of the workload's clients for dur: each client
// sends its next op only after the previous one completed, and starts no
// op after dur has passed (every client runs at least one). After each op
// the client runs the calibration kernel (calib.go). Throughput is each
// client's pairs over the time to the end of its last op less the time it
// spent calibrating, summed, so a client finishing early does not dilute
// the rate; CPU time excludes calibration too.
func (r *runner) phase(ctx context.Context, name string, dur time.Duration, t *Tracer, fn func(context.Context, int, opTrace) opOutcome) (*phase, error) {
	ph := &phase{name: name}
	type clientRun struct {
		outs                []opOutcome
		lat, calib          []float64
		end                 time.Duration
		calibWall, calibCPU time.Duration
		err                 error
	}
	runs := make([]clientRun, r.w.clients())
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(runs[c].outs) == 0 || time.Since(start) < dur {
				if ctx.Err() != nil {
					return
				}
				k := int(r.nextOp.Add(1))
				ot := opTrace{t: t, op: int64(k)}
				ot.span = t.Begin("op", ot.op, 0)
				t0 := time.Now()
				o := fn(ctx, k, ot)
				lat := time.Since(t0)
				t.SetKey(ot.span, o.jobID)
				t.End(ot.span)
				runs[c].outs = append(runs[c].outs, o)
				if o.err == nil && o.mismatch == nil {
					runs[c].lat = append(runs[c].lat, ms(lat))
				}
				c0 := time.Now()
				samples, cpu, err := calibrateAfter(lat, r.w.parallelism())
				if err != nil {
					runs[c].err = err
					return
				}
				runs[c].calib = append(runs[c].calib, samples...)
				runs[c].calibWall += time.Since(c0)
				runs[c].calibCPU += cpu
				runs[c].end = time.Since(start)
			}
		}()
	}
	wg.Wait()
	ph.cpu = cpuTime() - cpu0
	for _, cr := range runs {
		if cr.err != nil {
			return nil, fmt.Errorf("phase %s: %w", name, cr.err)
		}
		ph.cpu -= cr.calibCPU
		ph.calib = append(ph.calib, cr.calib...)
		pairs := 0
		for _, o := range cr.outs {
			if o.mismatch != nil {
				return nil, fmt.Errorf("phase %s: %w", name, o.mismatch)
			}
			ph.sent++
			ph.retries += o.retries
			if o.err != nil {
				ph.failed++
				fmt.Fprintf(os.Stderr, "smaperf: phase %s: op failed: %v\n", name, o.err)
				continue
			}
			ph.ok++
			pairs += o.pairs
			ph.shards += int64(o.shards)
			ph.dispatchRetr += o.dispatchRetries
		}
		ph.pairs += pairs
		ph.lat = append(ph.lat, cr.lat...)
		if busy := cr.end - cr.calibWall; busy > 0 {
			ph.rate += float64(pairs) / busy.Seconds()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("phase %s: %w", name, err)
	}
	r.report(ph)
	return ph, nil
}

func (r *runner) report(ph *phase) {
	fmt.Fprintf(r.out, "phase %s: sent=%d ok=%d failed=%d retries=%d pairs=%d\n",
		ph.name, ph.sent, ph.ok, ph.failed, ph.retries, ph.pairs)
	r.meta.Ops[ph.name] = ph.sent
}

// reportTail prints the latency tail and the failure fraction, which the
// run reports beside its metrics (see README.md for why they are not in
// BENCHMARK.json).
func (r *runner) reportTail(ph *phase, scale float64) {
	if pct, v, ok := tailLatency(ph.lat); ok {
		fmt.Fprintf(r.out, "latency_tail_ms p%g=%.3f (n=%d; %.3f as measured)\n", pct, v/scale, len(ph.lat), v)
	} else {
		fmt.Fprintf(r.out, "latency_tail_ms omitted: %d ops, needs >= %d\n", len(ph.lat), 2*minBeyond)
	}
	fmt.Fprintf(r.out, "failed_frac %g (%d of %d)\n", frac(ph.failed, ph.sent), ph.failed, ph.sent)
}

// traced runs the three phases of a traced run: untraced ops, traced
// ops, and the direct-call decomposition, each a third of the run.
func (r *runner) traced(ctx context.Context, cfg config, dataRoot string, res *result) error {
	third := cfg.seconds / 3
	plain, err := r.phase(ctx, "untraced", third, nil, r.httpOp)
	if err != nil {
		return err
	}
	tHTTP := NewTracer()
	r.tracer.Store(tHTTP)
	traced, err := r.phase(ctx, "traced", third, tHTTP, r.httpOp)
	r.tracer.Store(nil)
	if err != nil {
		return err
	}
	sinks, err := openSinks(filepath.Join(dataRoot, "direct"))
	if err != nil {
		return err
	}
	tDirect := NewTracer()
	direct, err := r.phase(ctx, "direct", third, tDirect, func(ctx context.Context, k int, ot opTrace) opOutcome {
		return r.w.direct(ctx, k, ot, sinks)
	})
	if err != nil {
		sinks.close()
		return err
	}
	journalBytes, err := sinks.close()
	if err != nil {
		return err
	}
	res.attempted = plain.sent + traced.sent + direct.sent
	res.failed = plain.failed + traced.failed + direct.failed
	r.reportTail(traced, hostScale(traced.calib))

	lm := layerInputs{
		w:            r.w,
		size:         cfg.size,
		journalPairs: sinks.pairs.Load(),
		plain:        plain,
		traced:       traced,
		direct:       direct,
		httpSpans:    tHTTP.Spans(),
		directSpans:  tDirect.Spans(),
		journalBytes: journalBytes,
	}
	vals, counters, err := lm.compute()
	if err != nil {
		return err
	}
	res.counters = counters
	// Per-layer times are as measured; this says how fast the host ran.
	vals["bench.calib_ms"] = median(append(append(append([]float64(nil), plain.calib...), traced.calib...), direct.calib...))
	for _, m := range perLayer {
		res.metrics[m.name] = metric{vals[m.name], m.unit}
	}
	r.paperRows(vals)
	return writeTrace(cfg, tHTTP, tDirect)
}

// paperRows prints the measured stage shares beside the MP-2 cost model's
// (paper Tables 2 and 4) for this workload's Params and frame size.
func (r *runner) paperRows(vals map[string]float64) {
	fmt.Fprintf(r.out, "paper-ratio rows (%s, %v):\n", r.w.name(), r.w.params())
	fmt.Fprintf(r.out, "  %-8s %10s %10s\n", "stage", "measured", "model")
	for _, s := range []string{"prepare", "semimap", "search"} {
		fmt.Fprintf(r.out, "  %-8s %10.4f %10.4f\n", s, vals["core."+s+"_share"], vals["model."+s+"_share"])
	}
}

// writeTrace writes the run's spans under the build directory.
func writeTrace(cfg config, tHTTP, tDirect *Tracer) error {
	dir := filepath.Join(cfg.root, buildDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(map[string][]Span{"traced": tHTTP.Spans(), "direct": tDirect.Spans()})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

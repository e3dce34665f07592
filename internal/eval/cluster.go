package eval

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sma/internal/cluster"
	"sma/internal/core"
	"sma/internal/server"
)

// MinClusterSpeedup is BENCH_cluster's floor on job throughput at the
// widest rung (4 workers by default) over the 1-worker rung. Each worker
// process is pinned to one core, so the bound is enforced only on hosts
// with at least ParallelGateCores cores.
const MinClusterSpeedup = 2.5

// ClusterScaling is the BENCH_cluster.json trajectory point: the
// distributed job plane driven up a worker-count ladder, every rung's
// merged result verified byte-identical to the offline sequential
// tracker. This is the repo's analog of the paper's processor-count
// scaling runs, one level up: whole nodes instead of PEs.
type ClusterScaling struct {
	Name       string        `json:"name"` // "cluster_scaling"
	Mode       string        `json:"mode"` // "inprocess" | "process"
	Size       int           `json:"size"`
	Frames     int           `json:"frames"`
	ShardPairs int           `json:"shard_pairs"`
	Jobs       int           `json:"jobs_per_rung"`
	Cores      int           `json:"cores"` // NumCPU of the driving host
	Rungs      []ClusterRung `json:"rungs"`
	// SpeedupAtMax is job throughput at the widest rung over the 1-worker
	// rung (1.0 when the ladder has a single rung).
	SpeedupAtMax float64 `json:"speedup_at_max"`
	// BitIdentical: every rung's merged SMP1 stream matched the offline
	// tracker's, byte for byte.
	BitIdentical bool `json:"bit_identical"`
}

// ClusterRung is one worker count's measurement.
type ClusterRung struct {
	Workers         int     `json:"workers"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	JobsPerSec      float64 `json:"jobs_per_sec"`
	PairsPerSec     float64 `json:"pairs_per_sec"`
	JobP50Sec       float64 `json:"job_p50_sec"`
	JobMaxSec       float64 `json:"job_max_sec"`
	DispatchRetries int64   `json:"dispatch_retries"`
}

// ClusterScalingOptions sizes the experiment.
type ClusterScalingOptions struct {
	Size       int   // frame edge (default 48)
	Frames     int   // frames per job (default 33 → 32 pairs)
	ShardPairs int   // pairs per shard (default 4 → 8 shards)
	Jobs       int   // jobs per rung (default 3)
	Workers    []int // ladder (default 1,2,4)
	Seed       int64 // scene seed (default 7)
	// Bin, when set, runs each worker as a real smaserve process
	// (`Bin -worker`) pinned to GOMAXPROCS=1 — the honest multi-node
	// measurement. Empty runs workers in-process with RowWorkers=1.
	Bin string
}

func (o ClusterScalingOptions) withDefaults() ClusterScalingOptions {
	if o.Size <= 0 {
		o.Size = 48
	}
	if o.Frames < 2 {
		o.Frames = 33
	}
	if o.ShardPairs <= 0 {
		o.ShardPairs = 4
	}
	if o.Jobs <= 0 {
		o.Jobs = 3
	}
	if len(o.Workers) == 0 {
		o.Workers = []int{1, 2, 4}
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// ClusterScalingExperiment measures distributed job throughput up a
// worker ladder. Each rung stands up N workers (in-process handlers, or
// real smaserve processes when opt.Bin is set) and one coordinator, runs
// opt.Jobs identical multi-frame jobs, and checks the merged result of
// each rung byte-identical to the offline sequential tracker — scaling
// must never buy a different answer.
func ClusterScalingExperiment(ctx context.Context, opt ClusterScalingOptions) (ClusterScaling, error) {
	opt = opt.withDefaults()
	out := ClusterScaling{
		Name:       "cluster_scaling",
		Mode:       "inprocess",
		Size:       opt.Size,
		Frames:     opt.Frames,
		ShardPairs: opt.ShardPairs,
		Jobs:       opt.Jobs,
		Cores:      runtime.NumCPU(),
	}
	if opt.Bin != "" {
		out.Mode = "process"
	}

	want, err := offlineReferenceStream(opt)
	if err != nil {
		return out, fmt.Errorf("eval: offline reference: %w", err)
	}

	identical := true
	for _, w := range opt.Workers {
		rung, rungBytes, err := runClusterRung(ctx, opt, w)
		if err != nil {
			return out, fmt.Errorf("eval: %d-worker rung: %w", w, err)
		}
		if !bytes.Equal(rungBytes, want) {
			identical = false
		}
		out.Rungs = append(out.Rungs, rung)
	}
	out.BitIdentical = identical
	if n := len(out.Rungs); n > 1 && out.Rungs[0].JobsPerSec > 0 {
		out.SpeedupAtMax = out.Rungs[n-1].JobsPerSec / out.Rungs[0].JobsPerSec
	} else {
		out.SpeedupAtMax = 1
	}
	if !identical {
		return out, fmt.Errorf("eval: a cluster rung's merged result differs from the offline tracker")
	}
	return out, nil
}

// runClusterRung measures one worker count and returns the last job's
// merged result bytes for the bit-identity check.
func runClusterRung(ctx context.Context, opt ClusterScalingOptions, workers int) (ClusterRung, []byte, error) {
	rung := ClusterRung{Workers: workers}

	var urls []string
	var stop func()
	var err error
	if opt.Bin != "" {
		urls, stop, err = startWorkerProcesses(ctx, opt.Bin, workers)
	} else {
		urls, stop, err = startWorkerHandlers(workers)
	}
	if err != nil {
		return rung, nil, err
	}
	defer stop()

	co, err := cluster.New(cluster.Config{
		Workers:    urls,
		ShardPairs: opt.ShardPairs,
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		return rung, nil, err
	}
	coCtx, coCancel := context.WithCancel(ctx)
	defer coCancel()
	co.Start(coCtx)
	ts := httptest.NewServer(co.Handler())
	defer func() {
		ts.Close()
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		co.Shutdown(sctx) //smavet:allow errdiscard -- teardown of a drained coordinator
	}()

	req := cluster.JobRequest{JobRequest: server.JobRequest{
		Synthetic: &server.SyntheticRef{Scene: "hurricane", Size: opt.Size, Seed: opt.Seed, Frames: opt.Frames},
	}}
	client := server.JobClient{URL: ts.URL}

	var (
		jobSecs []float64
		lastID  string
	)
	start := time.Now()
	for j := 0; j < opt.Jobs; j++ {
		t0 := time.Now()
		var view cluster.JobView
		if err := client.Run(ctx, req, &view); err != nil {
			return rung, nil, fmt.Errorf("job %d: %w", j, err)
		}
		if view.Status != server.JobDone {
			return rung, nil, fmt.Errorf("job %d finished %q: %s", j, view.Status, view.Error)
		}
		if view.Stats.PairsTracked != int64(opt.Frames-1) {
			return rung, nil, fmt.Errorf("job %d tracked %d pairs, want %d", j, view.Stats.PairsTracked, opt.Frames-1)
		}
		jobSecs = append(jobSecs, time.Since(t0).Seconds())
		rung.DispatchRetries += view.Cluster.DispatchRetries
		lastID = view.ID
	}
	rung.ElapsedSec = time.Since(start).Seconds()
	if rung.ElapsedSec > 0 {
		rung.JobsPerSec = float64(opt.Jobs) / rung.ElapsedSec
		rung.PairsPerSec = float64(opt.Jobs*(opt.Frames-1)) / rung.ElapsedSec
	}
	sort.Float64s(jobSecs)
	rung.JobP50Sec = jobSecs[len(jobSecs)/2]
	rung.JobMaxSec = jobSecs[len(jobSecs)-1]

	data, err := client.Result(ctx, lastID)
	return rung, data, err
}

// startWorkerHandlers runs n in-process workers, each pinned to one row
// worker so rungs measure distribution, not hidden intra-node fan-out.
func startWorkerHandlers(n int) ([]string, func(), error) {
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < n; i++ {
		wk := cluster.NewWorker(cluster.WorkerConfig{
			Concurrency: 2,
			RowWorkers:  1,
			Logf:        func(string, ...any) {},
		})
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ShardPath, wk)
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ready")
		})
		ts := httptest.NewServer(mux)
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	return urls, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}, nil
}

// startWorkerProcesses spawns n real `smaserve -worker` processes with
// GOMAXPROCS=1 and waits for each to publish its port.
func startWorkerProcesses(ctx context.Context, bin string, n int) ([]string, func(), error) {
	dir, err := os.MkdirTemp("", "smacluster")
	if err != nil {
		return nil, nil, err
	}
	var cmds []*exec.Cmd
	stop := func() {
		for _, cmd := range cmds {
			if cmd.Process != nil {
				cmd.Process.Signal(syscall.SIGTERM) //smavet:allow errdiscard -- best-effort teardown
				cmd.Wait()                          //smavet:allow errdiscard -- exit status irrelevant at teardown
			}
		}
		os.RemoveAll(dir) //smavet:allow errdiscard -- temp-dir teardown
	}
	var urls []string
	for i := 0; i < n; i++ {
		pf := filepath.Join(dir, fmt.Sprintf("worker%d.port", i))
		cmd := exec.CommandContext(ctx, bin,
			"-worker", "-addr", "127.0.0.1:0", "-port-file", pf,
			"-row-workers", "1", "-workers", "2")
		cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		if err := cmd.Start(); err != nil {
			stop()
			return nil, nil, fmt.Errorf("starting worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
		port, err := awaitPortFile(ctx, pf)
		if err != nil {
			stop()
			return nil, nil, fmt.Errorf("worker %d never published a port: %w", i, err)
		}
		urls = append(urls, "http://127.0.0.1:"+strconv.Itoa(port))
	}
	return urls, stop, nil
}

// awaitPortFile polls for a smaserve -port-file write.
func awaitPortFile(ctx context.Context, path string) (int, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil {
			if port, err := strconv.Atoi(strings.TrimSpace(string(data))); err == nil && port > 0 {
				return port, nil
			}
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("timed out waiting for %s", path)
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// offlineReferenceStream renders the job's expected merged SMP1 stream
// straight from the sequential tracker — the ground truth every rung
// must reproduce byte for byte.
func offlineReferenceStream(opt ClusterScalingOptions) ([]byte, error) {
	return offlineStream(server.SyntheticRef{Scene: "hurricane", Size: opt.Size, Seed: opt.Seed, Frames: opt.Frames})
}

// offlineStream renders the sequential tracker's merged SMP1 stream for
// a synthetic reference — shared by the scaling and recovery oracles.
func offlineStream(ref server.SyntheticRef) ([]byte, error) {
	scene, err := ref.SceneOf()
	if err != nil {
		return nil, err
	}
	params := core.ScaledParams()
	fields := make([][]byte, ref.Frames-1)
	for p := 0; p < ref.Frames-1; p++ {
		res, err := core.TrackSequential(core.Monocular(
			scene.Frame(float64(p)), scene.Frame(float64(p+1))), params, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", p, err)
		}
		var buf bytes.Buffer
		if err := server.NewMotionField("", res).WriteBinary(&buf); err != nil {
			return nil, err
		}
		fields[p] = buf.Bytes()
	}
	var out bytes.Buffer
	if err := server.WritePairStream(&out, fields, nil); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// Check gates the ladder: bit-identity at every rung and, on at least
// ParallelGateCores cores, a speedup of at least MinClusterSpeedup at the
// widest rung.
func (r ClusterScaling) Check() error {
	var errs []error
	if !r.BitIdentical {
		errs = append(errs, errors.New("a rung's merged result differs from the offline tracker"))
	}
	if r.Cores >= ParallelGateCores && !(r.SpeedupAtMax >= MinClusterSpeedup) {
		errs = append(errs, fmt.Errorf("speedup %.2fx at the widest rung below the %.1fx gate on %d cores",
			r.SpeedupAtMax, MinClusterSpeedup, r.Cores))
	}
	return errors.Join(errs...)
}

package eval

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sma/internal/cluster"
	"sma/internal/fault"
	"sma/internal/server"
)

// Recovery is the BENCH_recovery.json trajectory point: a real
// coordinator process killed (SIGKILL-equivalent, exit 137) mid-job by a
// deterministic crash point, restarted over the same -data-dir, and held
// to the durability contract — the journal resumes the job, only the
// unfinished shards re-dispatch, and the final merged SMP1 stream is
// byte-identical to an uninterrupted single-node run.
type Recovery struct {
	Name             string `json:"name"` // "recovery"
	Size             int    `json:"size"`
	Frames           int    `json:"frames"`
	Workers          int    `json:"workers"`
	ShardPairs       int    `json:"shard_pairs"`
	Shards           int    `json:"shards"`
	CrashAfterShards int    `json:"crash_after_shards"`
	// CoordinatorExit is the crashed process's exit code (137 = the
	// deterministic SMA_CRASH kill).
	CoordinatorExit int `json:"coordinator_exit"`
	// ShardsRestored is how many shards the restarted coordinator served
	// from checkpoints instead of re-dispatching.
	ShardsRestored int64 `json:"shards_restored"`
	Resumed        bool  `json:"resumed"`
	PairsVerified  int   `json:"pairs_verified"`
	BitIdentical   bool  `json:"bit_identical"`
	// CrashPhaseSec covers submit → process death; ResumeSec covers
	// restart → job done.
	CrashPhaseSec float64  `json:"crash_phase_sec"`
	ResumeSec     float64  `json:"resume_sec"`
	Violations    []string `json:"violations,omitempty"`
}

// RecoveryOptions sizes the drill. Bin is required: the crash is a real
// process exit, so the coordinator must run out of process.
type RecoveryOptions struct {
	Bin        string // smaserve binary (required)
	Size       int    // frame edge (default 32)
	Frames     int    // frames per job (default 13 → 12 pairs)
	Workers    int    // worker processes (default 2)
	ShardPairs int    // pairs per shard (default 2 → 6 shards)
	Seed       int64  // scene seed (default 7)
	// CrashAfterShards kills the coordinator after this many durable
	// shard checkpoints via SMA_CRASH=cluster.shard:n (default 2).
	CrashAfterShards int
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.Size <= 0 {
		o.Size = 32
	}
	if o.Frames < 4 {
		o.Frames = 13
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.ShardPairs <= 0 {
		o.ShardPairs = 2
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.CrashAfterShards <= 0 {
		o.CrashAfterShards = 2
	}
	return o
}

// RecoveryExperiment runs the SIGKILL-coordinator recovery drill.
// Returns an error only for harness failures; contract violations land
// in Violations.
func RecoveryExperiment(ctx context.Context, opt RecoveryOptions) (Recovery, error) {
	opt = opt.withDefaults()
	out := Recovery{
		Name: "recovery", Size: opt.Size, Frames: opt.Frames,
		Workers: opt.Workers, ShardPairs: opt.ShardPairs,
		CrashAfterShards: opt.CrashAfterShards, CoordinatorExit: -1,
	}
	out.Shards = (opt.Frames - 1 + opt.ShardPairs - 1) / opt.ShardPairs
	if opt.Bin == "" {
		return out, fmt.Errorf("eval: the recovery drill needs a smaserve binary (Bin)")
	}
	if out.Shards <= opt.CrashAfterShards {
		return out, fmt.Errorf("eval: %d shards cannot outlive a crash after %d; raise Frames or lower ShardPairs",
			out.Shards, opt.CrashAfterShards)
	}
	violate := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	urls, stopWorkers, err := startWorkerProcesses(ctx, opt.Bin, opt.Workers)
	if err != nil {
		return out, err
	}
	defer stopWorkers()
	dataDir, err := os.MkdirTemp("", "smarecovery")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dataDir) //smavet:allow errdiscard -- temp-dir teardown

	// Phase 1: a coordinator armed to exit 137 right after its n-th
	// durable shard checkpoint.
	crash := fmt.Sprintf("cluster.shard:%d", opt.CrashAfterShards)
	cmd, url, err := startCoordinatorProcess(ctx, opt.Bin, urls, dataDir, opt.ShardPairs, crash)
	if err != nil {
		return out, err
	}
	ref := server.SyntheticRef{Scene: "hurricane", Size: opt.Size, Seed: opt.Seed, Frames: opt.Frames}
	req := cluster.JobRequest{}
	req.Synthetic = &ref
	t0 := time.Now()
	id, err := (server.JobClient{URL: url}).Submit(ctx, req, nil)
	if err != nil {
		killProcess(cmd)
		return out, fmt.Errorf("eval: submitting the crash-phase job: %w", err)
	}
	out.CoordinatorExit = awaitExit(cmd)
	out.CrashPhaseSec = time.Since(t0).Seconds()
	if out.CoordinatorExit != 137 {
		violate("coordinator exited %d, want the crash point's 137", out.CoordinatorExit)
	}

	// Phase 2: same data dir, no crash env — recovery must finish the job.
	cmd, url, err = startCoordinatorProcess(ctx, opt.Bin, urls, dataDir, opt.ShardPairs, "")
	if err != nil {
		return out, err
	}
	defer killProcess(cmd)
	client := server.JobClient{URL: url}
	t1 := time.Now()
	var view cluster.JobView
	if err := client.Await(ctx, id, &view); err != nil {
		return out, fmt.Errorf("eval: polling the resumed job: %w", err)
	}
	out.ResumeSec = time.Since(t1).Seconds()
	out.ShardsRestored = view.Cluster.ShardsRestored
	out.Resumed = view.Recovered == "resumed"
	if view.Status != server.JobDone {
		violate("resumed job finished %s: %s", view.Status, view.Error)
	}
	if !out.Resumed {
		violate("job view reports recovered=%q, want \"resumed\"", view.Recovered)
	}
	if out.ShardsRestored < 1 {
		violate("no shard served from checkpoints; the crash landed after %d durable checkpoints", opt.CrashAfterShards)
	}
	if out.ShardsRestored >= int64(out.Shards) {
		violate("all %d shards restored; the crash should have left work to re-dispatch", out.Shards)
	}
	if view.Stats.PairsTracked != int64(opt.Frames-1) {
		violate("resumed job tracked %d pairs, want %d", view.Stats.PairsTracked, opt.Frames-1)
	}

	got, err := client.Result(ctx, id)
	if err != nil {
		return out, fmt.Errorf("eval: fetching the resumed result: %w", err)
	}
	want, err := offlineStream(ref)
	if err != nil {
		return out, fmt.Errorf("eval: offline reference: %w", err)
	}
	out.BitIdentical = bytes.Equal(got, want)
	if !out.BitIdentical {
		violate("resumed result (%d bytes) differs from the uninterrupted single-node stream (%d bytes)", len(got), len(want))
	} else {
		out.PairsVerified = opt.Frames - 1
	}
	return out, nil
}

// startCoordinatorProcess spawns `bin -coordinator` over the workers
// with the durable plane rooted at dataDir; crashSpec, when non-empty,
// arms the deterministic crash point via the SMA_CRASH env var.
func startCoordinatorProcess(ctx context.Context, bin string, urls []string, dataDir string, shardPairs int, crashSpec string) (*exec.Cmd, string, error) {
	pf := filepath.Join(dataDir, "coordinator.port")
	os.Remove(pf) //smavet:allow errdiscard -- clearing a stale port file
	cmd := exec.CommandContext(ctx, bin,
		"-coordinator", "-worker-urls", strings.Join(urls, ","),
		"-addr", "127.0.0.1:0", "-port-file", pf,
		"-shard-pairs", strconv.Itoa(shardPairs),
		"-data-dir", dataDir,
		"-health-interval", "100ms")
	cmd.Env = os.Environ()
	if crashSpec != "" {
		cmd.Env = append(cmd.Env, fault.CrashEnv+"="+crashSpec)
	}
	if err := cmd.Start(); err != nil {
		return nil, "", fmt.Errorf("eval: starting coordinator: %w", err)
	}
	port, err := awaitPortFile(ctx, pf)
	if err != nil {
		killProcess(cmd)
		return nil, "", fmt.Errorf("eval: coordinator never published a port: %w", err)
	}
	return cmd, "http://127.0.0.1:" + strconv.Itoa(port), nil
}

// awaitExit joins the process and returns its exit code.
func awaitExit(cmd *exec.Cmd) int {
	err := cmd.Wait()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// killProcess tears a spawned process down hard and reaps it.
func killProcess(cmd *exec.Cmd) {
	if cmd.Process != nil {
		cmd.Process.Signal(syscall.SIGKILL) //smavet:allow errdiscard -- best-effort teardown
		cmd.Wait()                          //smavet:allow errdiscard -- exit status irrelevant at teardown
	}
}

// Check gates the drill: any durability-contract violation fails it.
func (r Recovery) Check() error {
	errs := make([]error, len(r.Violations))
	for i, v := range r.Violations {
		errs[i] = errors.New(v)
	}
	return errors.Join(errs...)
}

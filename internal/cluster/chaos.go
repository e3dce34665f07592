package cluster

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sma/internal/fault"
	"sma/internal/server"
)

// ChaosOptions configures one cluster chaos run against a live
// coordinator: a clean reference job, rounds of node-level injected
// faults asserted exactly against fault.ClusterPlan.Expect, and
// optionally a real worker kill.
type ChaosOptions struct {
	URL   string // coordinator base URL, no trailing slash
	Scene string // synthetic scene name (default hurricane)
	Size  int    // frame edge in pixels (default 48)
	Seed  int64  // base seed; round r uses Seed+r (default 7)

	Frames int // sequence length per job (default 17 → 16 pairs)
	Rounds int // injected-fault jobs to run (default 3)

	// Per-round injected schedule sizing (defaults: 1 dead node when the
	// cluster has >1 worker, 2 flaky shards).
	DeadNodes   int
	FlakyShards int

	// KillWorker, when set, runs the real-kill round: the hook SIGKILLs
	// one worker process and returns its registry index. The drill waits
	// for the heartbeat to observe the death, then asserts the next job's
	// counters exactly equal the dead-on-arrival plan for that node —
	// process death before dispatch is indistinguishable from an injected
	// dead node, which is what makes the accounting exact. With
	// KillMidJob the hook fires after submission instead and the
	// assertions are bounded (done, every pair ok, bit-identical result),
	// since which shards the death touches then depends on timing.
	KillWorker func() (node int, err error)
	KillMidJob bool

	// PollInterval paces job-status polling (default 50ms).
	PollInterval time.Duration

	// GoroutineSlack is how many extra goroutines the coordinator may
	// hold after the run before the leak check fails (default 8).
	GoroutineSlack int
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Scene == "" {
		o.Scene = "hurricane"
	}
	if o.Size <= 0 {
		o.Size = 48
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Frames <= 0 {
		o.Frames = 17
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.DeadNodes == 0 && o.FlakyShards == 0 {
		o.DeadNodes, o.FlakyShards = 1, 2
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.GoroutineSlack <= 0 {
		o.GoroutineSlack = 8
	}
	return o
}

// ChaosResult is a cluster chaos run's verdict. An empty Violations list
// means the cluster upheld its contract: exact Expect accounting under
// injected faults, bit-identical results under reassignment, no
// coordinator goroutine leak.
type ChaosResult struct {
	Rounds           int      `json:"rounds"`
	Frames           int      `json:"frames"`
	Workers          int      `json:"workers"`
	Shards           int      `json:"shards_per_job"`
	PairsVerified    int      `json:"pairs_verified"`
	DispatchRetries  int64    `json:"dispatch_retries"`
	Reassigned       int64    `json:"shards_reassigned"`
	NodesLost        int64    `json:"nodes_lost"`
	KilledNode       int      `json:"killed_node"` // -1 when no kill round ran
	GoroutinesBefore int      `json:"goroutines_before"`
	GoroutinesAfter  int      `json:"goroutines_after"`
	Violations       []string `json:"violations,omitempty"`
}

// RunChaos drives a live coordinator through node-level fault schedules
// and asserts the cluster contract: injected dead nodes and shard flakes
// produce exactly the counters fault.ClusterPlan.Expect predicts, every
// job still delivers every pair bit-identically to the clean reference,
// a really-killed worker is accounted like an injected dead node, and
// the coordinator's goroutine count settles back to baseline. Assumes a
// quiet coordinator. Returns an error only for harness failures;
// contract violations land in Violations.
func RunChaos(ctx context.Context, opt ChaosOptions) (ChaosResult, error) {
	opt = opt.withDefaults()
	res := ChaosResult{Rounds: opt.Rounds, Frames: opt.Frames, KilledNode: -1}
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	topo, err := fetchClusterView(ctx, opt)
	if err != nil {
		return res, fmt.Errorf("chaos: cluster topology: %w", err)
	}
	workers := len(topo.Workers)
	if workers == 0 {
		return res, fmt.Errorf("chaos: coordinator reports no workers")
	}
	res.Workers = workers
	shards := len(makeShards(opt.Frames-1, topo.ShardPairs))
	res.Shards = shards

	before, err := opt.client().Counters(ctx)
	if err != nil {
		return res, fmt.Errorf("chaos: baseline metrics scrape: %w", err)
	}
	res.GoroutinesBefore = int(before["smaserve_goroutines"])

	ref := &server.SyntheticRef{Scene: opt.Scene, Size: opt.Size, Seed: opt.Seed, Frames: opt.Frames}
	cleanReq := JobRequest{}
	cleanReq.Synthetic = ref
	clean, err := runClusterChaosJob(ctx, opt, cleanReq)
	if err != nil {
		return res, fmt.Errorf("chaos: clean reference job: %w", err)
	}
	if clean.Status != server.JobDone {
		return res, fmt.Errorf("chaos: clean job finished %q: %s", clean.Status, clean.Error)
	}
	cleanBytes, err := opt.client().Result(ctx, clean.ID)
	if err != nil {
		return res, fmt.Errorf("chaos: clean result stream: %w", err)
	}

	deadPerRound := opt.DeadNodes
	if deadPerRound >= workers {
		deadPerRound = workers - 1
	}
	for round := 0; round < opt.Rounds; round++ {
		seed := opt.Seed + int64(round)
		plan := fault.RandomClusterPlan(seed, shards, workers,
			fault.RandomClusterConfig{DeadNodes: deadPerRound, FlakyShards: opt.FlakyShards})
		want := plan.Expect(shards, workers)

		req := JobRequest{ClusterFault: specFromPlan(plan)}
		req.Synthetic = ref
		view, err := runClusterChaosJob(ctx, opt, req)
		if err != nil {
			return res, fmt.Errorf("chaos: round %d: %w", round, err)
		}
		if view.Status != server.JobDone {
			violate("round %d (seed %d): job finished %q, want done (%s)", round, seed, view.Status, view.Error)
			continue
		}
		checkExpect(violate, fmt.Sprintf("round %d (seed %d)", round, seed), view.Cluster, want)
		res.PairsVerified += verifyClusterResult(ctx, violate,
			fmt.Sprintf("round %d (seed %d)", round, seed), opt, view, cleanBytes)
		res.DispatchRetries += view.Cluster.DispatchRetries
		res.Reassigned += view.Cluster.Reassigned
		res.NodesLost += view.Cluster.NodesLost
	}

	if opt.KillWorker != nil {
		if err := runKillRound(ctx, opt, &res, violate, shards, workers, ref, cleanBytes); err != nil {
			return res, err
		}
	}

	n, settled, err := opt.client().AwaitGoroutines(ctx, res.GoroutinesBefore+opt.GoroutineSlack)
	if err != nil {
		return res, fmt.Errorf("chaos: final metrics scrape: %w", err)
	}
	res.GoroutinesAfter = n
	if !settled {
		violate("coordinator goroutines grew from %d to %d (slack %d): dispatch leak",
			res.GoroutinesBefore, res.GoroutinesAfter, opt.GoroutineSlack)
	}
	return res, nil
}

// runKillRound executes the real-worker-kill drill.
func runKillRound(ctx context.Context, opt ChaosOptions, res *ChaosResult,
	violate func(string, ...any), shards, workers int,
	ref *server.SyntheticRef, cleanBytes []byte) error {
	if workers < 2 {
		violate("kill round needs at least 2 workers, cluster has %d", workers)
		return nil
	}
	req := JobRequest{}
	req.Synthetic = ref

	if opt.KillMidJob {
		// Timing-dependent: submit, then kill. Bounded assertions only —
		// the job must still finish done with every pair bit-identical.
		id, err := opt.client().Submit(ctx, req, nil)
		if err != nil {
			return fmt.Errorf("chaos: kill round submit: %w", err)
		}
		node, err := opt.KillWorker()
		if err != nil {
			return fmt.Errorf("chaos: kill hook: %w", err)
		}
		res.KilledNode = node
		var view JobView
		if err := opt.client().Await(ctx, id, &view); err != nil {
			return fmt.Errorf("chaos: kill round: %w", err)
		}
		if view.Status != server.JobDone {
			violate("mid-job kill of node %d: job finished %q, want done (%s)", node, view.Status, view.Error)
			return nil
		}
		res.PairsVerified += verifyClusterResult(ctx, violate,
			fmt.Sprintf("mid-job kill of node %d", node), opt, view, cleanBytes)
		res.DispatchRetries += view.Cluster.DispatchRetries
		res.Reassigned += view.Cluster.Reassigned
		res.NodesLost += view.Cluster.NodesLost
		return nil
	}

	// Kill first, wait for the heartbeat to mark the node dead, then run
	// a job: a dead process is dead on arrival for every dispatch, so the
	// accounting must exactly match the equivalent injected plan.
	node, err := opt.KillWorker()
	if err != nil {
		return fmt.Errorf("chaos: kill hook: %w", err)
	}
	res.KilledNode = node
	deadline := time.Now().Add(15 * time.Second)
	for {
		topo, err := fetchClusterView(ctx, opt)
		if err != nil {
			return fmt.Errorf("chaos: polling topology after kill: %w", err)
		}
		if node < 0 || node >= len(topo.Workers) {
			return fmt.Errorf("chaos: kill hook returned node %d outside [0,%d)", node, len(topo.Workers))
		}
		if !topo.Workers[node].Alive {
			break
		}
		if time.Now().After(deadline) {
			violate("heartbeat never marked killed node %d dead", node)
			return nil
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	want := fault.NewClusterPlan(0, []int{node}).Expect(shards, workers)
	view, err := runClusterChaosJob(ctx, opt, req)
	if err != nil {
		return fmt.Errorf("chaos: kill round: %w", err)
	}
	if view.Status != server.JobDone {
		violate("kill of node %d: job finished %q, want done (%s)", node, view.Status, view.Error)
		return nil
	}
	checkExpect(violate, fmt.Sprintf("killed node %d", node), view.Cluster, want)
	res.PairsVerified += verifyClusterResult(ctx, violate,
		fmt.Sprintf("killed node %d", node), opt, view, cleanBytes)
	res.DispatchRetries += view.Cluster.DispatchRetries
	res.Reassigned += view.Cluster.Reassigned
	res.NodesLost += view.Cluster.NodesLost
	return nil
}

// checkExpect asserts a job's cluster accounting exactly equals the
// plan's prediction, placement included.
func checkExpect(violate func(string, ...any), label string, got ClusterInfo, want fault.ClusterExpectation) {
	if got.DispatchRetries != want.DispatchRetries {
		violate("%s: dispatch retries %d, want exactly %d", label, got.DispatchRetries, want.DispatchRetries)
	}
	if got.Reassigned != want.Reassigned {
		violate("%s: shards reassigned %d, want exactly %d", label, got.Reassigned, want.Reassigned)
	}
	if got.NodesLost != want.NodesLost {
		violate("%s: nodes lost %d, want exactly %d", label, got.NodesLost, want.NodesLost)
	}
	if len(got.Placement) != len(want.Placement) {
		violate("%s: placement %v, want %v", label, got.Placement, want.Placement)
		return
	}
	for k := range want.Placement {
		if got.Placement[k] != want.Placement[k] {
			violate("%s: shard %d completed on node %d, want %d", label, k, got.Placement[k], want.Placement[k])
		}
	}
}

// verifyClusterResult checks a faulted job delivered every pair and its
// merged SMP1 stream is byte-identical to the clean reference. Returns
// the number of pairs verified.
func verifyClusterResult(ctx context.Context, violate func(string, ...any),
	label string, opt ChaosOptions, view JobView, cleanBytes []byte) int {
	if len(view.Pairs) != opt.Frames-1 {
		violate("%s: %d pairs reported, want %d", label, len(view.Pairs), opt.Frames-1)
		return 0
	}
	for _, p := range view.Pairs {
		if p.Status != server.PairOK {
			violate("%s: pair %d is %s: %s", label, p.Pair, p.Status, p.Error)
			return 0
		}
	}
	got, err := opt.client().Result(ctx, view.ID)
	if err != nil {
		violate("%s: result stream: %v", label, err)
		return 0
	}
	if !bytes.Equal(got, cleanBytes) {
		violate("%s: merged result (%d bytes) differs from the clean reference (%d bytes)",
			label, len(got), len(cleanBytes))
		return 0
	}
	return opt.Frames - 1
}

// specFromPlan converts a fault plan to its wire form.
func specFromPlan(p *fault.ClusterPlan) *FaultSpec {
	spec := &FaultSpec{Seed: p.Seed, DeadNodes: append([]int(nil), p.DeadNodes...)}
	for _, f := range p.Flaky {
		spec.Flaky = append(spec.Flaky, FlakySpec{Shard: f.Shard, Attempts: f.Attempts})
	}
	return spec
}

// client is the job client the drill drives the coordinator with.
func (o ChaosOptions) client() server.JobClient {
	return server.JobClient{URL: o.URL, Poll: o.PollInterval}
}

// runClusterChaosJob submits one job and polls it to a terminal status.
func runClusterChaosJob(ctx context.Context, opt ChaosOptions, req JobRequest) (JobView, error) {
	var view JobView
	err := opt.client().Run(ctx, req, &view)
	return view, err
}

// fetchClusterView reads GET /v1/cluster.
func fetchClusterView(ctx context.Context, opt ChaosOptions) (ClusterView, error) {
	var view ClusterView
	err := opt.client().Get(ctx, "/v1/cluster", &view)
	return view, err
}

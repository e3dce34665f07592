// Command smachaos is the chaos harness for smaserve: it drives a live
// server through deterministic seeded fault schedules and asserts the
// degraded-mode contract — jobs finish with per-pair statuses, retry/
// skip/gap counters match each schedule's exact expectation, surviving
// pairs are bit-identical to an undamaged job, the server's degraded
// Prometheus counters advance by exactly the injected amounts, and the
// goroutine count settles back to its baseline.
//
// Usage:
//
//	smachaos -url http://127.0.0.1:8080
//	smachaos -url http://127.0.0.1:8080 -rounds 5 -frames 12 -seed 42
//	smachaos -url http://127.0.0.1:8080 -fail 2 -flaky 2 -damage 3 -out chaos.json
//
// With -cluster the same harness drills a coordinator instead: injected
// node-level fault plans (dead nodes, flaky shards) must produce exactly
// the dispatch/reassignment counters fault.ClusterPlan.Expect predicts,
// every job must stay bit-identical to a clean reference, and
// -kill-worker SIGKILLs a real worker process mid-drill to prove a dead
// node is reassigned with the same exact accounting:
//
//	smachaos -cluster -url http://127.0.0.1:8080
//	smachaos -cluster -url http://127.0.0.1:8080 -kill-worker $PID -kill-node 1
//
// The crash-recovery drill (a real coordinator SIGKILLed after a durable
// shard checkpoint and resumed from it) is smabench -only recovery
// -recovery-bin ./smaserve; see docs/ROBUSTNESS.md.
//
// The run assumes a quiet server: counter-delta checks are not
// meaningful under concurrent foreign traffic. Exit status is non-zero
// if any invariant was violated.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"syscall"
	"time"

	"sma/internal/cluster"
	"sma/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smachaos: ")
	var (
		url     = flag.String("url", "http://127.0.0.1:8080", "smaserve base URL")
		scene   = flag.String("scene", "hurricane", "synthetic scene: hurricane|thunderstorm|shear")
		size    = flag.Int("size", 48, "synthetic frame edge in pixels")
		seed    = flag.Int64("seed", 7, "base schedule seed; round r uses seed+r")
		frames  = flag.Int("frames", 10, "sequence length per job")
		rounds  = flag.Int("rounds", 3, "fault-injected jobs to run")
		fail    = flag.Int("fail", 1, "persistently failing frames per round")
		flaky   = flag.Int("flaky", 1, "transiently failing (retry-recoverable) frames per round")
		damage  = flag.Int("damage", 1, "NaN/dead-scanline damaged frames per round")
		timeout = flag.Duration("timeout", 5*time.Minute, "overall run deadline")
		out     = flag.String("out", "", "write the chaos result as JSON to this file")

		clusterMode = flag.Bool("cluster", false, "drill a cluster coordinator instead of a single server")
		deadNodes   = flag.Int("dead-nodes", 1, "cluster: injected dead nodes per round")
		flakyShards = flag.Int("flaky-shards", 2, "cluster: injected flaky shards per round")
		killWorker  = flag.Int("kill-worker", 0, "cluster: SIGKILL this worker PID for the real-kill round (0 = skip)")
		killNode    = flag.Int("kill-node", -1, "cluster: registry index of the killed worker (required with -kill-worker)")
		killMidJob  = flag.Bool("kill-mid-job", false, "cluster: kill after job submission (bounded assertions) instead of before")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *clusterMode {
		runCluster(ctx, clusterArgs{
			url: strings.TrimRight(*url, "/"), scene: *scene, size: *size,
			seed: *seed, frames: *frames, rounds: *rounds,
			deadNodes: *deadNodes, flakyShards: *flakyShards,
			killPID: *killWorker, killNode: *killNode, killMidJob: *killMidJob,
			out: *out,
		})
		return
	}
	res, err := server.RunChaos(ctx, server.ChaosOptions{
		URL:          strings.TrimRight(*url, "/"),
		Scene:        *scene,
		Size:         *size,
		Seed:         *seed,
		Frames:       *frames,
		Rounds:       *rounds,
		FailFrames:   *fail,
		FlakyFrames:  *flaky,
		DamageFrames: *damage,
	})
	if err != nil {
		log.Fatalf("chaos run: %v", err)
	}

	fmt.Printf("rounds          %d (%d frames each)\n", res.Rounds, res.Frames)
	fmt.Printf("pairs verified  %d bit-identical to the undamaged job\n", res.PairsVerified)
	fmt.Printf("pairs skipped   %d\n", res.PairsSkipped)
	fmt.Printf("frame retries   %d\n", res.Retries)
	fmt.Printf("goroutines      %d before, %d after\n", res.GoroutinesBefore, res.GoroutinesAfter)

	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("encoding result: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}

	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			log.Printf("VIOLATION: %s", v)
		}
		os.Exit(1)
	}
	log.Printf("degraded-mode contract upheld")
}

type clusterArgs struct {
	url, scene             string
	size, frames, rounds   int
	seed                   int64
	deadNodes, flakyShards int
	killPID, killNode      int
	killMidJob             bool
	out                    string
}

// runCluster executes the coordinator drill and exits non-zero on any
// contract violation.
func runCluster(ctx context.Context, a clusterArgs) {
	opt := cluster.ChaosOptions{
		URL:         a.url,
		Scene:       a.scene,
		Size:        a.size,
		Seed:        a.seed,
		Frames:      a.frames,
		Rounds:      a.rounds,
		DeadNodes:   a.deadNodes,
		FlakyShards: a.flakyShards,
		KillMidJob:  a.killMidJob,
	}
	if a.killPID > 0 {
		if a.killNode < 0 {
			log.Fatalf("-kill-worker needs -kill-node (the worker's index in -worker-urls order)")
		}
		opt.KillWorker = func() (int, error) {
			log.Printf("SIGKILL worker pid %d (node %d)", a.killPID, a.killNode)
			if err := syscall.Kill(a.killPID, syscall.SIGKILL); err != nil {
				return 0, fmt.Errorf("kill pid %d: %w", a.killPID, err)
			}
			return a.killNode, nil
		}
	}

	res, err := cluster.RunChaos(ctx, opt)
	if err != nil {
		log.Fatalf("cluster chaos run: %v", err)
	}

	fmt.Printf("cluster          %d workers, %d shards/job\n", res.Workers, res.Shards)
	fmt.Printf("rounds           %d (%d frames each)\n", res.Rounds, res.Frames)
	fmt.Printf("pairs verified   %d bit-identical to the clean reference\n", res.PairsVerified)
	fmt.Printf("dispatch retries %d\n", res.DispatchRetries)
	fmt.Printf("reassigned       %d shards\n", res.Reassigned)
	fmt.Printf("nodes lost       %d\n", res.NodesLost)
	if res.KilledNode >= 0 {
		fmt.Printf("killed node      %d\n", res.KilledNode)
	}
	fmt.Printf("goroutines       %d before, %d after\n", res.GoroutinesBefore, res.GoroutinesAfter)

	if a.out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatalf("encoding result: %v", err)
		}
		if err := os.WriteFile(a.out, append(data, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", a.out, err)
		}
		log.Printf("wrote %s", a.out)
	}

	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			log.Printf("VIOLATION: %s", v)
		}
		os.Exit(1)
	}
	log.Printf("cluster contract upheld")
}

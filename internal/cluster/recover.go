package cluster

import (
	"context"
	"fmt"

	"sma/internal/server"
)

// Recover replays the coordinator's journal, restores terminal jobs into
// the store, resumes interrupted jobs by re-dispatching only their
// unfinished shards, sweeps orphaned field directories, and compacts the
// journal (server.JobPlane.Recover). Call once, after New and before
// serving traffic (workers need not be alive yet — resumed dispatches
// walk the registry like any other). A no-op without Config.DataDir.
func (c *Coordinator) Recover(ctx context.Context) (server.RecoveryStats, error) {
	restore := func(r *server.RecoveredJob) server.JobEntry {
		job := newClusterJob(c.jobs.Restored(r, true))
		job.shards = len(r.Shards)
		return job
	}
	return c.jobs.Recover(ctx, restore, c.resumeJob)
}

// resumeJob resubmits an interrupted cluster job: shards whose
// checkpoints verify (same geometry, every pair event present, every ok
// field readable) are re-seated from disk, everything else re-dispatches.
// The merged output is byte-identical to an uninterrupted run because
// shard checkpoints are only written after their fields are durable and
// each pair's bytes are position-independent.
func (c *Coordinator) resumeJob(ctx context.Context, r *server.RecoveredJob) error {
	if r.Frames < 2 || r.Req.Synthetic == nil {
		return fmt.Errorf("unresumable spec (frames=%d)", r.Frames)
	}
	if _, err := c.resolveParams(r.Req.Params); err != nil {
		return err
	}
	shards := makeShards(r.Frames-1, c.cfg.ShardPairs)
	byPair := map[int]server.PairSummary{}
	for _, ps := range r.Pairs {
		byPair[ps.Pair] = ps
	}

	jobCtx, jobCancel := context.WithCancel(context.WithoutCancel(ctx))
	job := newClusterJob(server.ResumedJob(r, true, jobCancel))
	skip := map[int]bool{}
	for k, cp := range r.Shards {
		if k < 0 || k >= len(shards) || shards[k].Lo != cp.Lo || shards[k].Hi != cp.Hi {
			// ShardPairs changed across the restart: the checkpointed range no
			// longer matches shard k's cut, so re-run it under the new geometry.
			continue
		}
		pairs := make([]server.PairSummary, 0, cp.Hi-cp.Lo)
		for p := cp.Lo; p < cp.Hi; p++ {
			if ps, have := byPair[p]; have {
				pairs = append(pairs, ps)
			}
		}
		if len(pairs) < cp.Hi-cp.Lo {
			continue
		}
		if missing := c.jobs.MissingFields(r.ID, pairs); len(missing) > 0 {
			c.cfg.Logf("smaserve: cluster job %s: re-running shard %d", r.ID, k)
			continue
		}
		skip[k] = true
		job.restoreShard(pairs, cp.Stats)
	}

	c.store.Put(r.ID, job)
	c.metrics.jobs.With("resumed").Inc()
	req := JobRequest{JobRequest: r.Req}
	c.wg.Add(1)
	go func() {
		// Blocking admission: resumed jobs respect MaxJobs like fresh ones,
		// queueing behind each other when recovery brings back more than fit.
		c.jobSlots <- struct{}{}
		c.runJob(jobCtx, job, req, nil, skip, func() { <-c.jobSlots })
	}()
	return nil
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/fault"
	"sma/internal/server"
	"sma/internal/stream"
)

// sameNodeRetries bounds transient retries against one node before the
// failure is promoted to a node failure and the walk moves on.
const sameNodeRetries = 2

// runJob executes one sharded job: cut the pair range, dispatch every
// shard (at most one in-flight dispatch per configured node), and settle
// the terminal status from what survived. skip names shards already
// satisfied from recovery checkpoints (nil on fresh jobs). jobDone
// releases the admission slot.
func (c *Coordinator) runJob(ctx context.Context, job *clusterJob, req JobRequest, plan *fault.ClusterPlan, skip map[int]bool, jobDone func()) {
	defer c.wg.Done()
	defer jobDone()
	shards := makeShards(req.Synthetic.Frames-1, c.cfg.ShardPairs)
	job.start(len(shards))
	c.metrics.jobs.With(string(server.JobRunning)).Inc()

	runCtx, cancel := context.WithTimeout(ctx, c.cfg.JobTimeout)
	defer cancel()

	sem := make(chan struct{}, c.reg.Len())
	var wg sync.WaitGroup
	for k := range shards {
		if skip[k] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			c.dispatchShard(runCtx, job, req, plan, k, shards[k])
		}(k)
	}
	wg.Wait()

	status := job.finish(runCtx)
	view := job.View()
	if c.jl != nil {
		if status == server.JobCancelled && c.draining.Load() {
			// The drain cut the job short: checkpoint it resumable instead of
			// losing the queued work the way pre-durability SIGTERM did.
			c.jl.Pending(job.ID)
			c.metrics.jobs.With("pending").Inc()
		} else {
			c.jl.End(job.ID, status, view.Error, view.Stats)
		}
	}
	c.metrics.jobs.With(string(status)).Inc()
	m := c.metrics
	m.shards.Add(int64(view.Cluster.Shards))
	m.dispatchRetries.Add(view.Cluster.DispatchRetries)
	m.reassigned.Add(view.Cluster.Reassigned)
	m.nodesLost.Add(view.Cluster.NodesLost)
	m.pairs.Add(view.Stats.PairsTracked)
	c.cfg.Logf("smaserve: cluster job %s %s: %d shards, %d retries, %d reassigned, %d nodes lost, %d restored",
		job.ID, status, view.Cluster.Shards, view.Cluster.DispatchRetries,
		view.Cluster.Reassigned, view.Cluster.NodesLost, view.Cluster.ShardsRestored)
}

// dispatchShard places and executes one shard, mirroring
// fault.ClusterPlan.Expect hop for hop: affinity home k mod W, a counted
// retry per dead node the walk crosses, counted same-node retries for
// transient failures, cyclic reassignment until an alive node completes
// the shard or the walk exhausts the ring.
func (c *Coordinator) dispatchShard(ctx context.Context, job *clusterJob, req JobRequest, plan *fault.ClusterPlan, k int, sh shardRange) {
	w := c.reg.Len()
	home := k % w
	node := home
	hops := 0
	flakes := plan.FlakeAttempts(k)
	transients := 0
	for {
		if err := ctx.Err(); err != nil {
			job.failShard(sh, fmt.Sprintf("dispatch aborted: %v", err))
			return
		}
		if hops >= w {
			job.failShard(sh, "no alive worker could complete the shard")
			return
		}
		if plan.NodeDead(node) || !c.reg.Alive(node) {
			job.dispatchRetry()
			job.lost(node)
			node = (node + 1) % w
			hops++
			transients = 0
			continue
		}
		if flakes > 0 {
			// Injected transient failure: counted like a real connection cut,
			// retried on the same node.
			flakes--
			job.dispatchRetry()
			continue
		}
		recs, st, err := c.callShard(ctx, c.reg.URL(node), job.ID, k, sh, req)
		if err == nil {
			c.reg.Dispatched(node)
			job.place(k, node, home)
			job.merge(recs, st)
			c.checkpointShard(job, k, node, sh, recs, st)
			fault.Crash("cluster.shard")
			return
		}
		var pe *permanentShardError
		if errors.As(err, &pe) {
			job.failShard(sh, pe.Error())
			return
		}
		if stream.Transient(err) && transients < sameNodeRetries {
			transients++
			job.dispatchRetry()
			c.cfg.Logf("smaserve: shard %s/%d transient on node %d (attempt %d): %v", job.ID, k, node, transients, err)
			time.Sleep(c.retryDelay)
			continue
		}
		// Node failure: the process is gone or persistently unable to answer.
		// Mark it dead so later shards (and the next heartbeat revival) see
		// it, and walk on.
		c.cfg.Logf("smaserve: shard %s/%d lost node %d: %v", job.ID, k, node, err)
		c.reg.MarkDead(node)
		job.dispatchRetry()
		job.lost(node)
		node = (node + 1) % w
		hops++
		transients = 0
	}
}

// checkpointShard makes one merged shard durable: field bytes first, the
// pair events next, and the shard-done record last — so a replayed shard
// event certifies that everything it covers is already on disk. Each
// field spills from the job's memory as soon as its bytes are durable. Any
// persistence failure abandons the checkpoint (logged); the shard simply
// re-runs on recovery, degrading durability but never correctness.
func (c *Coordinator) checkpointShard(job *clusterJob, k, node int, sh shardRange, recs []server.PairRecord, st stream.Stats) {
	if c.jl == nil {
		return
	}
	for _, rec := range recs {
		if rec.Status != server.PairOK {
			continue
		}
		if err := c.fstore.PutField(job.ID, rec.Pair, rec.Field); err != nil {
			c.cfg.Logf("smaserve: persisting field %s/%d: %v (shard %d will re-run on recovery)", job.ID, rec.Pair, err, k)
			return
		}
		job.Spill(rec.Pair)
	}
	for _, rec := range recs {
		sum := server.PairSummary{Pair: rec.Pair, Status: rec.Status, Error: rec.Cause}
		if rec.Status == server.PairOK {
			sum.MeanMag = rec.MeanMag()
		}
		c.jl.Pair(job.ID, sum)
	}
	c.jl.ShardDone(job.ID, k, server.ShardCheckpoint{Node: c.reg.URL(node), Lo: sh.Lo, Hi: sh.Hi, Stats: st})
}

// permanentShardError marks a shard the cluster must not retry: the
// worker understood the request and rejected it (4xx), so every node
// would reject it the same way.
type permanentShardError struct{ msg string }

func (e *permanentShardError) Error() string { return e.msg }

// callShard posts one shard to a worker and decodes the full SMP1
// response. Errors are classified for the placement loop: transient
// (truncated stream, worker saturation, timeouts) via stream.Transient,
// permanent rejections via permanentShardError, anything else a node
// failure.
func (c *Coordinator) callShard(ctx context.Context, base, jobID string, k int, sh shardRange, req JobRequest) ([]server.PairRecord, stream.Stats, error) {
	var st stream.Stats
	sreq := ShardRequest{
		JobID:     jobID,
		Shard:     k,
		Synthetic: *req.Synthetic,
		Params:    req.Params,
		Robust:    req.Robust,
		Pyramid:   req.Pyramid,
		PairLo:    sh.Lo,
		PairHi:    sh.Hi,
	}
	body, err := json.Marshal(sreq)
	if err != nil {
		return nil, st, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, st, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, st, fmt.Errorf("cluster: shard dispatch: %w", err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		return nil, st, fmt.Errorf("cluster: worker saturated: %w", stream.ErrTransient)
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, st, &permanentShardError{msg: fmt.Sprintf("worker rejected shard (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))}
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, st, fmt.Errorf("cluster: worker answered %d", resp.StatusCode)
	}

	pr := server.NewPairStreamReader(resp.Body)
	var recs []server.PairRecord
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			// Mid-stream cut: ingest.ErrTruncated, classified transient.
			return nil, st, err
		}
		if rec.Pair < sh.Lo || rec.Pair >= sh.Hi {
			return nil, st, &permanentShardError{msg: fmt.Sprintf("worker returned pair %d outside shard [%d,%d)", rec.Pair, sh.Lo, sh.Hi)}
		}
		recs = append(recs, rec)
	}
	if trailer := pr.Trailer(); len(trailer) > 0 {
		if err := json.Unmarshal(trailer, &st); err != nil {
			return nil, st, fmt.Errorf("cluster: bad stats trailer: %w", err)
		}
	}
	if len(recs) != sh.Hi-sh.Lo {
		return nil, st, fmt.Errorf("cluster: worker delivered %d records for a %d-pair shard: %w",
			len(recs), sh.Hi-sh.Lo, stream.ErrTransient)
	}
	return recs, st, nil
}

// resolveParams applies the coordinator's defaults to a request spec.
func (c *Coordinator) resolveParams(spec server.ParamsSpec) (core.Params, error) {
	return spec.Resolve(c.cfg.DefaultParams)
}

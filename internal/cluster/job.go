package cluster

import (
	"context"
	"sync"

	"sma/internal/server"
	"sma/internal/stream"
)

// clusterJob is one sharded job on the coordinator: the job record both
// roles share (server.Job: lifecycle, pairs, fields, view) plus the
// dispatch accounting the chaos drills assert.
type clusterJob struct {
	*server.Job

	// mu guards the dispatch accounting, kept exactly alongside the work
	// so a finished job's counters equal fault.ClusterPlan.Expect for
	// injected plans.
	mu              sync.Mutex
	shards          int
	dispatchRetries int64
	reassigned      int64
	lostNodes       map[int]bool
	placement       []int
	// shardsRestored counts shards whose results came from recovery
	// checkpoints instead of this run's dispatch (their placement entries
	// stay -1).
	shardsRestored int64
}

// ClusterInfo is the dispatch accounting a job view carries.
type ClusterInfo struct {
	Shards          int   `json:"shards"`
	DispatchRetries int64 `json:"dispatch_retries"`
	Reassigned      int64 `json:"shards_reassigned"`
	NodesLost       int64 `json:"nodes_lost"`
	Placement       []int `json:"placement,omitempty"`
	// ShardsRestored counts shards recovered from checkpoints rather than
	// dispatched by this process (crash-recovery resumes).
	ShardsRestored int64 `json:"shards_restored,omitempty"`
}

// JobView is the coordinator's job snapshot: the single-node view plus
// cluster accounting.
type JobView struct {
	server.JobView
	Cluster ClusterInfo `json:"cluster"`
}

// newClusterJob wraps a job record; the coordinator retains every job's
// fields, since its result stream is the merge surface.
func newClusterJob(job *server.Job) *clusterJob {
	return &clusterJob{Job: job, lostNodes: make(map[int]bool)}
}

// View snapshots the shared record and the dispatch accounting.
func (j *clusterJob) View() JobView {
	v := JobView{JobView: j.Job.View()}
	j.mu.Lock()
	defer j.mu.Unlock()
	v.Cluster = ClusterInfo{
		Shards:          j.shards,
		DispatchRetries: j.dispatchRetries,
		Reassigned:      j.reassigned,
		NodesLost:       int64(len(j.lostNodes)),
		Placement:       append([]int(nil), j.placement...),
		ShardsRestored:  j.shardsRestored,
	}
	return v
}

// Snapshot is the coordinator's GET /v1/jobs/{id} body.
func (j *clusterJob) Snapshot() any { return j.View() }

// start flips the job running and sizes its placement table.
func (j *clusterJob) start(shards int) {
	j.Start()
	j.mu.Lock()
	j.shards = shards
	j.placement = make([]int, shards)
	for i := range j.placement {
		j.placement[i] = -1
	}
	j.mu.Unlock()
}

// dispatchRetry counts one failed dispatch attempt (dead-node hop or
// transient flake) — the coordinator's mirror of Expect.DispatchRetries.
func (j *clusterJob) dispatchRetry() {
	j.mu.Lock()
	j.dispatchRetries++
	j.mu.Unlock()
}

// lost records that a placement walk touched dead node w.
func (j *clusterJob) lost(w int) {
	j.mu.Lock()
	j.lostNodes[w] = true
	j.mu.Unlock()
}

// place records shard k's final node and whether it was reassigned off
// its affinity home.
func (j *clusterJob) place(k, node, home int) {
	j.mu.Lock()
	if k >= 0 && k < len(j.placement) {
		j.placement[k] = node
	}
	if node != home {
		j.reassigned++
	}
	j.mu.Unlock()
}

// merge folds one shard's decoded records and stats into the job.
func (j *clusterJob) merge(recs []server.PairRecord, st stream.Stats) {
	for _, rec := range recs {
		sum := server.PairSummary{Pair: rec.Pair, Status: rec.Status, Error: rec.Cause}
		var field []byte
		if rec.Status == server.PairOK {
			field = rec.Field
			sum.MeanMag = rec.MeanMag()
		}
		j.AddPair(sum, field)
	}
	j.AddStats(st)
}

// restoreShard re-seats one checkpointed shard's pairs and stats on a
// resumed job, before its remaining shards dispatch; the shard's fields
// stay on disk.
func (j *clusterJob) restoreShard(pairs []server.PairSummary, st stream.Stats) {
	j.Reseat(pairs, nil)
	j.AddStats(st)
	j.mu.Lock()
	j.shardsRestored++
	j.mu.Unlock()
}

// failShard marks every pair of an undeliverable shard failed.
func (j *clusterJob) failShard(sh shardRange, cause string) {
	for p := sh.Lo; p < sh.Hi; p++ {
		j.AddPair(server.PairSummary{Pair: p, Status: server.PairFailed, Error: cause}, nil)
	}
	j.AddStats(stream.Stats{PairsFailed: int64(sh.Hi - sh.Lo)})
}

// finish settles the terminal status from what survived.
func (j *clusterJob) finish(ctx context.Context) server.JobStatus {
	status, _ := j.Finish(ctx.Err(), "job exceeded its deadline")
	return status
}

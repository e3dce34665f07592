package cluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"sma/internal/server"
	"sma/internal/stream"
)

// clusterJob is one sharded job's state on the coordinator. It mirrors
// the single-node Job shape (same statuses, same per-pair summaries, the
// same JSON view) plus the dispatch accounting the chaos drills assert.
type clusterJob struct {
	ID string

	mu       sync.Mutex
	status   server.JobStatus
	created  time.Time
	started  time.Time
	finished time.Time
	frames   int
	stats    stream.Stats
	pairs    []server.PairSummary
	fields   [][]byte
	// onDisk marks pairs whose fields were spilled to the FileStore once
	// a durable coordinator checkpointed them; their fields entries are
	// nil and the result stream reads them back.
	onDisk []bool
	errMsg string
	cancel context.CancelFunc

	// Dispatch accounting, kept exactly alongside the work so a finished
	// job's counters equal fault.ClusterPlan.Expect for injected plans.
	shards          int
	dispatchRetries int64
	reassigned      int64
	lostNodes       map[int]bool
	placement       []int

	// Recovery provenance: "" normally, "restored" for a terminal job
	// rebuilt from the journal, "resumed" for an interrupted job finishing
	// its remaining shards. shardsRestored counts shards whose results
	// came from checkpoints instead of this run's dispatch (their
	// placement entries stay -1).
	recovered      string
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

func newClusterJob(id string, frames int, cancel context.CancelFunc) *clusterJob {
	return &clusterJob{
		ID:        id,
		status:    server.JobQueued,
		created:   time.Now(),
		frames:    frames,
		fields:    make([][]byte, frames-1),
		cancel:    cancel,
		lostNodes: make(map[int]bool),
	}
}

// View snapshots the job under its lock, pairs sorted by index.
func (j *clusterJob) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	pairs := append([]server.PairSummary(nil), j.pairs...)
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].Pair < pairs[b].Pair })
	v := JobView{
		JobView: server.JobView{
			ID:        j.ID,
			Status:    j.status,
			Frames:    j.frames,
			Created:   j.created,
			Stats:     j.stats,
			Pairs:     pairs,
			Error:     j.errMsg,
			Recovered: j.recovered,
		},
		Cluster: ClusterInfo{
			Shards:          j.shards,
			DispatchRetries: j.dispatchRetries,
			Reassigned:      j.reassigned,
			NodesLost:       int64(len(j.lostNodes)),
			Placement:       append([]int(nil), j.placement...),
			ShardsRestored:  j.shardsRestored,
		},
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.ElapsedSec = end.Sub(j.started).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Cancel requests cancellation; reports whether the job was cancellable.
func (j *clusterJob) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != server.JobQueued && j.status != server.JobRunning {
		return false
	}
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// SizeBytes lets the result store's byte cap account for retained fields.
func (j *clusterJob) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var n int64 = 512
	n += int64(len(j.pairs)) * 64
	for _, f := range j.fields {
		n += int64(len(f))
	}
	return n
}

// start flips the job running and sizes its placement table.
func (j *clusterJob) start(shards int) {
	j.mu.Lock()
	j.status = server.JobRunning
	j.started = time.Now()
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
	j.mu.Lock()
	for _, rec := range recs {
		if rec.Pair < 0 || rec.Pair >= len(j.fields) {
			continue
		}
		sum := server.PairSummary{Pair: rec.Pair, Status: rec.Status, Error: rec.Cause}
		if rec.Status == server.PairOK {
			j.fields[rec.Pair] = rec.Field
			sum.MeanMag = rec.MeanMag()
		}
		j.pairs = append(j.pairs, sum)
	}
	addStats(&j.stats, st)
	j.mu.Unlock()
}

// addStats folds one shard's stats trailer into a running total.
func addStats(dst *stream.Stats, st stream.Stats) {
	dst.FramesIn += st.FramesIn
	dst.FitsComputed += st.FitsComputed
	dst.FitsReused += st.FitsReused
	dst.Evictions += st.Evictions
	dst.PairsTracked += st.PairsTracked
	dst.Retries += st.Retries
	dst.FramesSkipped += st.FramesSkipped
	dst.PairsSkipped += st.PairsSkipped
	dst.PairsFailed += st.PairsFailed
	dst.Gaps += st.Gaps
}

// spill drops pair's in-memory field once it is durable on disk.
func (j *clusterJob) spill(pair int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if pair < 0 || pair >= len(j.fields) || j.fields[pair] == nil {
		return
	}
	if j.onDisk == nil {
		j.onDisk = make([]bool, len(j.fields))
	}
	j.fields[pair] = nil
	j.onDisk[pair] = true
}

// restoreShard re-seats one checkpointed shard's pairs, fields, and stats
// on a resumed job, before its remaining shards dispatch.
func (j *clusterJob) restoreShard(pairs []server.PairSummary, fields map[int][]byte, st stream.Stats) {
	j.mu.Lock()
	j.pairs = append(j.pairs, pairs...)
	for p, b := range fields {
		if p >= 0 && p < len(j.fields) {
			j.fields[p] = b
		}
	}
	addStats(&j.stats, st)
	j.shardsRestored++
	j.mu.Unlock()
}

// failShard marks every pair of an undeliverable shard failed.
func (j *clusterJob) failShard(sh shardRange, cause string) {
	j.mu.Lock()
	for p := sh.Lo; p < sh.Hi; p++ {
		j.pairs = append(j.pairs, server.PairSummary{Pair: p, Status: server.PairFailed, Error: cause})
		j.stats.PairsFailed++
	}
	j.mu.Unlock()
}

// finish computes the terminal status from what survived.
func (j *clusterJob) finish(ctx context.Context) server.JobStatus {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case ctx.Err() == context.Canceled:
		j.status = server.JobCancelled
	case ctx.Err() == context.DeadlineExceeded:
		j.status = server.JobFailed
		j.errMsg = "job exceeded its deadline"
	case j.stats.PairsTracked == 0:
		j.status = server.JobFailed
		j.errMsg = "degraded run delivered no pairs"
	default:
		j.status = server.JobDone
	}
	st := j.status
	j.mu.Unlock()
	return st
}

// resultSnapshot copies what the result stream needs: the in-memory
// fields and which of the rest are on disk.
func (j *clusterJob) resultSnapshot() (server.JobStatus, [][]byte, []bool, []server.PairSummary) {
	j.mu.Lock()
	defer j.mu.Unlock()
	fields := make([][]byte, len(j.fields))
	copy(fields, j.fields)
	return j.status, fields, append([]bool(nil), j.onDisk...), append([]server.PairSummary(nil), j.pairs...)
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"sma/internal/core"
	"sma/internal/fault"
	"sma/internal/journal"
	"sma/internal/stream"
)

// Event is one journal record of the durable job plane. The journal
// itself is payload-agnostic (internal/journal); the server writes these
// as JSON. Event ordering carries the recovery contract: a "pair" event
// is only appended after its field bytes (when retained) are durable on
// disk, and the in-order collector guarantees pair events for one job
// form a contiguous prefix — so replay can resume a job at exactly
// "first pair without an event".
type Event struct {
	// Type is one of: "spec" (job accepted), "pair" (one pair
	// checkpointed), "end" (terminal status), "pending" (drain abandoned
	// the job resumably), "delete" (job left the store; do not restore),
	// "shard" (coordinator: one shard's pairs fully merged).
	Type string `json:"t"`
	// Job is the job id every event belongs to.
	Job string `json:"job"`

	// Spec fields.
	Req     *JobRequest `json:"req,omitempty"`
	Frames  int         `json:"frames,omitempty"`
	Created time.Time   `json:"created,omitempty"`

	// Pair fields (Status also carries the terminal JobStatus on "end").
	Pair    int     `json:"pair,omitempty"`
	Status  string  `json:"status,omitempty"`
	MeanMag float64 `json:"mean_mag,omitempty"`
	Cause   string  `json:"cause,omitempty"`

	// Shard fields (coordinator checkpoints). PairLo/PairHi record the
	// shard's global pair range so recovery detects a geometry change
	// (ShardPairs reconfigured across a restart) and re-runs the shard.
	Shard  int    `json:"shard,omitempty"`
	Node   string `json:"node,omitempty"`
	PairLo int    `json:"lo,omitempty"`
	PairHi int    `json:"hi,omitempty"`

	// End fields (Stats also carries the shard's stats on "shard").
	Stats *stream.Stats `json:"stats,omitempty"`
}

// JobLog is the typed face of the journal: one append method per event,
// plus replay into per-job recovered state. Appends are safe for
// concurrent use (the journal serializes them).
type JobLog struct {
	j    *journal.Journal
	logf func(format string, args ...any)
}

// OpenJobLog opens (creating if needed) the job journal under dir.
func OpenJobLog(dir string, logf func(format string, args ...any)) (*JobLog, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	j, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{Logf: logf})
	if err != nil {
		return nil, err
	}
	return &JobLog{j: j, logf: logf}, nil
}

// Close flushes and closes the underlying journal.
func (l *JobLog) Close() error { return l.j.Close() }

// append marshals and appends one event; failures are logged, not
// returned, on the checkpoint paths — losing a checkpoint degrades
// durability (the job resumes from an earlier pair), never correctness.
func (l *JobLog) append(e Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("server: journal event: %w", err)
	}
	return l.j.Append(b)
}

// Spec records an accepted job. Returns the append error: acknowledging
// a job whose spec is not durable would break the recovery contract.
func (l *JobLog) Spec(id string, req *JobRequest, frames int, created time.Time) error {
	return l.append(Event{Type: "spec", Job: id, Req: req, Frames: frames, Created: created})
}

// Pair checkpoints one completed (ok or dropped) pair.
func (l *JobLog) Pair(id string, ps PairSummary) {
	err := l.append(Event{Type: "pair", Job: id, Pair: ps.Pair, Status: ps.Status, MeanMag: ps.MeanMag, Cause: ps.Error})
	if err != nil {
		l.logf("smaserve: journaling pair %d of %s: %v", ps.Pair, id, err)
	}
}

// ShardCheckpoint is one fully-merged shard's durable record: the node
// that ran it, its global pair range, and the worker's stats trailer.
type ShardCheckpoint struct {
	Node   string
	Lo, Hi int
	Stats  stream.Stats
}

// ShardDone checkpoints one fully-merged shard (coordinator mode). It is
// appended only after the shard's field bytes are durable, so a replayed
// shard event certifies its whole pair range.
func (l *JobLog) ShardDone(id string, shard int, cp ShardCheckpoint) {
	st := cp.Stats
	err := l.append(Event{Type: "shard", Job: id, Shard: shard, Node: cp.Node, PairLo: cp.Lo, PairHi: cp.Hi, Stats: &st})
	if err != nil {
		l.logf("smaserve: journaling shard %d of %s: %v", shard, id, err)
	}
}

// End records a job's terminal status.
func (l *JobLog) End(id string, status JobStatus, errMsg string, st stream.Stats) {
	if err := l.append(Event{Type: "end", Job: id, Status: string(status), Cause: errMsg, Stats: &st}); err != nil {
		l.logf("smaserve: journaling end of %s: %v", id, err)
	}
}

// Pending marks a job the drain abandoned before completion: recovery
// resumes it as if the process had crashed, instead of losing it the way
// pre-durability SIGTERM did.
func (l *JobLog) Pending(id string) {
	if err := l.append(Event{Type: "pending", Job: id}); err != nil {
		l.logf("smaserve: journaling pending %s: %v", id, err)
	}
}

// Delete records that a job left the store (expiry, eviction, or DELETE)
// so replay does not resurrect it.
func (l *JobLog) Delete(id string) {
	if err := l.append(Event{Type: "delete", Job: id}); err != nil {
		l.logf("smaserve: journaling delete of %s: %v", id, err)
	}
}

// RecoveredJob is one job's state rebuilt from the journal.
type RecoveredJob struct {
	ID      string
	Req     JobRequest
	Frames  int
	Created time.Time
	// Pairs are the checkpointed pair summaries in event (= pair) order;
	// their count is the job's completed contiguous prefix.
	Pairs []PairSummary
	// Shards maps checkpointed shard index → its checkpoint
	// (coordinator mode; empty standalone).
	Shards map[int]ShardCheckpoint
	// Ended is true when a terminal event was journaled; Status/ErrMsg/
	// Stats then carry the outcome.
	Ended  bool
	Status JobStatus
	ErrMsg string
	Stats  stream.Stats
	// Pending is true when the drain checkpointed the job resumable.
	Pending bool

	seq int // arrival order, for deterministic replay output
}

// Replay rebuilds per-job state from the journal. Deleted jobs are
// elided. The returned slice is ordered by first appearance in the log
// (= creation order). Also returns the journal's repair stats.
func (l *JobLog) Replay() ([]*RecoveredJob, journal.ReplayStats, error) {
	jobs := map[string]*RecoveredJob{}
	n := 0
	st, err := l.j.Replay(func(payload []byte) error {
		var e Event
		if err := json.Unmarshal(payload, &e); err != nil {
			// A valid-CRC record that does not parse is a version skew or a
			// writer bug; skip it rather than abandon the whole log.
			l.logf("smaserve: journal replay: unparseable event: %v", err)
			return nil
		}
		switch e.Type {
		case "spec":
			if e.Req == nil {
				l.logf("smaserve: journal replay: spec for %s without request", e.Job)
				return nil
			}
			jobs[e.Job] = &RecoveredJob{
				ID: e.Job, Req: *e.Req, Frames: e.Frames, Created: e.Created, seq: n,
			}
			n++
		case "pair":
			if r := jobs[e.Job]; r != nil {
				r.Pairs = append(r.Pairs, PairSummary{Pair: e.Pair, Status: e.Status, MeanMag: e.MeanMag, Error: e.Cause})
			}
		case "shard":
			if r := jobs[e.Job]; r != nil {
				if r.Shards == nil {
					r.Shards = map[int]ShardCheckpoint{}
				}
				cp := ShardCheckpoint{Node: e.Node, Lo: e.PairLo, Hi: e.PairHi}
				if e.Stats != nil {
					cp.Stats = *e.Stats
				}
				r.Shards[e.Shard] = cp
			}
		case "end":
			if r := jobs[e.Job]; r != nil {
				r.Ended = true
				r.Status = JobStatus(e.Status)
				r.ErrMsg = e.Cause
				if e.Stats != nil {
					r.Stats = *e.Stats
				}
			}
		case "pending":
			if r := jobs[e.Job]; r != nil {
				r.Pending = true
			}
		case "delete":
			delete(jobs, e.Job)
		default:
			l.logf("smaserve: journal replay: unknown event type %q", e.Type)
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	out := make([]*RecoveredJob, 0, len(jobs))
	for _, r := range jobs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out, st, nil
}

// Compact rewrites the journal to exactly the given jobs' state — called
// after replay (before any new appends) so the log holds one event set
// per live job instead of the full history.
func (l *JobLog) Compact(recs []*RecoveredJob) error {
	var live [][]byte
	add := func(e Event) error {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("server: journal event: %w", err)
		}
		live = append(live, b)
		return nil
	}
	for _, r := range recs {
		req := r.Req
		if err := add(Event{Type: "spec", Job: r.ID, Req: &req, Frames: r.Frames, Created: r.Created}); err != nil {
			return err
		}
		for _, ps := range r.Pairs {
			if err := add(Event{Type: "pair", Job: r.ID, Pair: ps.Pair, Status: ps.Status, MeanMag: ps.MeanMag, Cause: ps.Error}); err != nil {
				return err
			}
		}
		shards := make([]int, 0, len(r.Shards))
		for sh := range r.Shards {
			shards = append(shards, sh)
		}
		sort.Ints(shards)
		for _, sh := range shards {
			cp := r.Shards[sh]
			st := cp.Stats
			if err := add(Event{Type: "shard", Job: r.ID, Shard: sh, Node: cp.Node, PairLo: cp.Lo, PairHi: cp.Hi, Stats: &st}); err != nil {
				return err
			}
		}
		if r.Ended {
			st := r.Stats
			if err := add(Event{Type: "end", Job: r.ID, Status: string(r.Status), Cause: r.ErrMsg, Stats: &st}); err != nil {
				return err
			}
		} else if r.Pending {
			if err := add(Event{Type: "pending", Job: r.ID}); err != nil {
				return err
			}
		}
	}
	return l.j.Compact(live)
}

// Open builds a Server like New and, when cfg.DataDir is set, attaches
// the durable job plane: a FileStore for result bytes and a write-ahead
// journal for job state. Call Recover before serving to replay the
// journal and resume interrupted jobs.
func Open(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return New(cfg), nil
	}
	if cfg.Store != nil {
		return nil, errors.New("server: DataDir and a custom Store are mutually exclusive")
	}
	cfg = cfg.withDefaults()
	jl, err := OpenJobLog(cfg.DataDir, cfg.Logf)
	if err != nil {
		return nil, err
	}
	// The store's eviction hooks need the Server (metrics) and the journal,
	// but the Server needs the store first; the pointer is published after
	// New and the hooks tolerate firing before that (nothing can be stored
	// before Open returns anyway).
	var srv atomic.Pointer[Server]
	fs, err := NewFileStore(FileStoreConfig{
		MemStoreConfig: MemStoreConfig{
			TTL:        cfg.ResultTTL,
			MaxEntries: cfg.MaxStoredResults,
			MaxBytes:   cfg.MaxStoredBytes,
			OnEvict: func(n int) {
				if s := srv.Load(); s != nil {
					s.metrics.evicted.Add(int64(n))
				}
			},
			// A removed entry must not resurrect on the next restart.
			OnRemove: jl.Delete,
		},
		Dir:  cfg.DataDir,
		Logf: cfg.Logf,
	})
	if err != nil {
		jl.Close() //smavet:allow errdiscard -- error-path teardown
		return nil, err
	}
	cfg.Store = fs
	s := New(cfg)
	s.jlog, s.jobs.Log = jl, jl
	s.fstore, s.jobs.Fields = fs, fs
	srv.Store(s)
	return s, nil
}

// Recover replays the journal, restores terminal jobs into the store,
// resumes interrupted jobs from their last checkpointed pair, sweeps
// orphaned field directories, and compacts the journal (JobPlane.Recover).
// Call once, after Open and before serving traffic.
func (s *Server) Recover(ctx context.Context) (RecoveryStats, error) {
	restore := func(r *RecoveredJob) JobEntry { return s.jobs.Restored(r, r.Req.Retain) }
	return s.jobs.Recover(ctx, restore, s.resumeJob)
}

// resumeJob resubmits an interrupted job from its last checkpointed
// pair: the restored prefix (summaries + fields) is kept, and the
// pipeline re-runs only frames firstMissing.. — the in-order collector
// made the checkpointed pairs a contiguous prefix, so the merged output
// is byte-identical to an uninterrupted run.
func (s *Server) resumeJob(ctx context.Context, r *RecoveredJob) error {
	if r.Frames < 2 || r.Req.Synthetic == nil {
		return fmt.Errorf("unresumable spec (frames=%d)", r.Frames)
	}
	// The trusted prefix is the CONTIGUOUS run of checkpointed pairs: the
	// in-order collector emits pairs in sequence, so a gap (a checkpoint
	// whose journal append failed, or duplicate events from an earlier
	// resume) ends what we can trust and everything after it re-runs.
	firstMissing := 0
	for _, ps := range r.Pairs {
		if ps.Pair != firstMissing {
			break
		}
		firstMissing++
	}
	if totalPairs := r.Frames - 1; firstMissing > totalPairs {
		firstMissing = totalPairs
	}
	prefix := r.Pairs[:firstMissing]

	params, err := r.Req.Params.Resolve(s.cfg.DefaultParams)
	if err != nil {
		return err
	}
	// Remaining window: pair k needs frames k and k+1, so resume renders
	// frames firstMissing..Frames-1 by shifting the synthetic T0.
	ref := *r.Req.Synthetic
	ref.T0 += firstMissing
	remaining := r.Frames - firstMissing
	src, err := jobSource(ref, remaining)
	if err != nil {
		return err
	}
	if r.Req.Fault != nil {
		// Fault plans are frame-indexed against the original sequence; a
		// resumed job re-plans over the remaining window. Chaos accounting
		// is therefore not preserved across a restart (documented in
		// docs/ROBUSTNESS.md) — bit-identity of surviving pairs is.
		plan, err := r.Req.Fault.plan(remaining)
		if err != nil {
			return err
		}
		src = fault.WrapSource(src, plan)
	}

	jobCtx, jobCancel := context.WithCancel(context.WithoutCancel(ctx))
	job := ResumedJob(r, r.Req.Retain, jobCancel)
	job.pairOffset = firstMissing
	s.jobs.reseat(job, prefix)
	// Synthesized prefix stats: the resumed run's pipeline stats cover
	// only the remaining window; these counters re-add the checkpointed
	// prefix so the finished job's totals match an uninterrupted run
	// (fit-cache counters are lost with the process and stay zero).
	job.prefix.FramesIn = int64(firstMissing)
	for _, ps := range prefix {
		switch ps.Status {
		case PairOK:
			job.prefix.PairsTracked++
		case PairSkipped:
			job.prefix.PairsSkipped++
		default:
			job.prefix.PairsFailed++
		}
	}
	// Re-resolve the journaled pyramid spec so a resumed job searches in
	// exactly the mode the original request was accepted with.
	pyr, err := r.Req.Pyramid.Resolve(params)
	if err != nil {
		return fmt.Errorf("journaled pyramid spec: %w", err)
	}
	opt := core.Options{Robust: r.Req.Robust, Pyramid: pyr}

	if err := s.pool.Submit(func(poolCtx context.Context) {
		s.runJob(poolCtx, jobCtx, job, src, params, opt)
	}); err != nil {
		jobCancel()
		// The journal still holds the job unfinished; it will be retried on
		// the next restart. Record the failure in the store meanwhile.
		job.status = JobFailed
		job.errMsg = fmt.Sprintf("recovery resubmission rejected: %v", err)
		s.store.Put(r.ID, job)
		return err
	}
	s.store.Put(r.ID, job)
	s.metrics.jobs.With("resumed").Inc()
	return nil
}

package server

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/stream"
)

// JobStatus is a job lifecycle state.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Per-pair outcome states: a pair is ok (tracked and summarized),
// skipped (a constituent frame was lost or gate-rejected), or failed
// (tracking errored and IsolatePairs confined the loss to this pair).
const (
	PairOK      = "ok"
	PairSkipped = "skipped"
	PairFailed  = "failed"
)

// PairSummary is the per-pair digest a job retains: full motion fields of
// long sequences would pin unbounded memory, so jobs keep the scalar
// summary and per-job stream.Stats instead. Degraded runs report every
// pair — dropped ones carry their status and cause instead of a motion
// summary, so partial results stay interpretable.
type PairSummary struct {
	Pair    int     `json:"pair"`
	Status  string  `json:"status"`
	MeanMag float64 `json:"mean_magnitude_px"`
	Error   string  `json:"error,omitempty"`
}

// Job is the record of one asynchronous multi-frame run, on either role:
// smaserve fills it from its streaming pipeline, and the cluster
// coordinator wraps it in a record that adds its dispatch accounting.
type Job struct {
	ID string

	mu       sync.Mutex
	status   JobStatus
	created  time.Time
	started  time.Time
	finished time.Time
	frames   int
	stats    stream.Stats
	pairs    []PairSummary
	errMsg   string
	cancel   context.CancelFunc

	// retain keeps each surviving pair's SMF1-encoded motion field so
	// GET /v1/jobs/{id}/result can stream the merged output — the
	// bit-identity surface the cluster coordinator is compared against.
	// fields is indexed by pair; nil entries are dropped pairs, or pairs
	// marked in onDisk, whose bytes live in the FileStore once durable
	// (durable roles only).
	retain bool
	fields [][]byte
	onDisk []bool

	// Recovery state (zero for ordinary jobs). recovered marks how the
	// durable plane rebuilt this job ("restored" = was terminal,
	// "resumed" = re-run from a checkpoint); pairOffset maps a resumed
	// smaserve pipeline's pair indices onto the original sequence; prefix
	// re-adds the checkpointed prefix's counters to the resumed run's
	// stats.
	recovered  string
	pairOffset int
	prefix     stream.Stats
}

// NewJob opens the record of an accepted job. retain keeps each ok pair's
// field for the result stream; cancel is what DELETE /v1/jobs/{id} calls.
func NewJob(id string, frames int, retain bool, cancel context.CancelFunc) *Job {
	j := &Job{ID: id, status: JobQueued, created: time.Now(), frames: frames, retain: retain, cancel: cancel}
	if retain {
		j.fields = make([][]byte, frames-1)
	}
	return j
}

// JobView is the JSON-serializable snapshot GET /v1/jobs/{id} returns.
type JobView struct {
	ID         string        `json:"id"`
	Status     JobStatus     `json:"status"`
	Frames     int           `json:"frames"`
	Created    time.Time     `json:"created"`
	Started    *time.Time    `json:"started,omitempty"`
	Finished   *time.Time    `json:"finished,omitempty"`
	ElapsedSec float64       `json:"elapsed_sec,omitempty"`
	Stats      stream.Stats  `json:"stats"`
	Pairs      []PairSummary `json:"pairs,omitempty"`
	Error      string        `json:"error,omitempty"`
	// Recovered is set on jobs the durable plane rebuilt after a restart:
	// "restored" (was finished) or "resumed" (re-run from a checkpoint).
	Recovered string `json:"recovered,omitempty"`
}

// Settled reports whether the viewed job is done, failed or cancelled.
func (v JobView) Settled() bool {
	return v.Status == JobDone || v.Status == JobFailed || v.Status == JobCancelled
}

// View snapshots the job under its lock, pairs in index order (a
// coordinator merges shards as they finish).
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Status:    j.status,
		Frames:    j.frames,
		Created:   j.created,
		Stats:     j.stats,
		Pairs:     append([]PairSummary(nil), j.pairs...),
		Error:     j.errMsg,
		Recovered: j.recovered,
	}
	sort.Slice(v.Pairs, func(a, b int) bool { return v.Pairs[a].Pair < v.Pairs[b].Pair })
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

// Cancel requests cancellation of a queued or running job. It reports
// whether the job was still cancellable.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != JobQueued && j.status != JobRunning {
		return false
	}
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// SizeBytes reports the job's resident footprint for the store's byte
// cap — dominated by the retained per-pair motion fields held in memory.
func (j *Job) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var n int64 = 512 // struct + summaries overhead
	n += int64(len(j.pairs)) * 64
	for _, f := range j.fields {
		n += int64(len(f))
	}
	return n
}

// Start marks the job running.
func (j *Job) Start() {
	j.mu.Lock()
	j.status = JobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// AddPair records one pair's outcome. field is the pair's SMF1 bytes (nil
// for a dropped pair), kept for the result stream when the job retains.
func (j *Job) AddPair(ps PairSummary, field []byte) {
	j.mu.Lock()
	j.pairs = append(j.pairs, ps)
	if j.retain && field != nil && ps.Pair >= 0 && ps.Pair < len(j.fields) {
		j.fields[ps.Pair] = field
	}
	j.mu.Unlock()
}

// AddStats folds run counters into the job's totals.
func (j *Job) AddStats(st stream.Stats) {
	j.mu.Lock()
	j.stats.Add(st)
	j.mu.Unlock()
}

// Finish settles the terminal status from the run's error and what it
// delivered, and returns it with its error text. deadline is the text
// for a run that ran out of time.
func (j *Job) Finish(err error, deadline string) (JobStatus, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil && j.stats.PairsTracked == 0:
		// The degraded mode swallowed every pair; a "done" job with no
		// results would be a lie.
		j.status, j.errMsg = JobFailed, "degraded run delivered no pairs"
	case err == nil:
		j.status = JobDone
	case errors.Is(err, context.Canceled):
		j.status = JobCancelled
	case errors.Is(err, context.DeadlineExceeded):
		j.status, j.errMsg = JobFailed, deadline
	default:
		j.status, j.errMsg = JobFailed, err.Error()
	}
	return j.status, j.errMsg
}

// Spill drops pair's in-memory field once the FileStore holds it
// durably; the result stream reads it back from disk.
func (j *Job) Spill(pair int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if pair < 0 || pair >= len(j.fields) || j.fields[pair] == nil {
		return
	}
	j.fields[pair] = nil
	j.markOnDisk(pair)
}

// Reseat appends checkpointed pairs to a recovered job. The fields of its
// ok pairs stay on disk, where the result stream reads them: a recovered
// job is charged index memory only, like the live durable job it was.
// missing lists ok pairs whose field did not read back; they stream as
// undelivered.
func (j *Job) Reseat(pairs []PairSummary, missing []int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pairs = append(j.pairs, pairs...)
	if !j.retain {
		return
	}
	for _, ps := range pairs {
		if ps.Status == PairOK && ps.Pair >= 0 && ps.Pair < len(j.fields) && !slices.Contains(missing, ps.Pair) {
			j.markOnDisk(ps.Pair)
		}
	}
}

// markOnDisk records that pair's field lives in the FileStore (j.mu held).
func (j *Job) markOnDisk(pair int) {
	if j.onDisk == nil {
		j.onDisk = make([]bool, len(j.fields))
	}
	j.onDisk[pair] = true
}

// JobEntry is a stored job as the shared /v1/jobs handlers see it. *Job
// is one; the cluster coordinator stores a record that embeds *Job and
// adds its dispatch accounting to the view.
type JobEntry interface {
	record() *Job
	// Snapshot is the JSON body of GET /v1/jobs/{id}.
	Snapshot() any
}

func (j *Job) record() *Job { return j }

// Snapshot returns the job's View.
func (j *Job) Snapshot() any { return j.View() }

// StreamJob runs src through the degraded-mode pipeline every job runs
// under, on smaserve and on a cluster worker alike, so a shard degrades
// exactly as the same pairs would in-process. Transient frame errors are
// retried (3 attempts, 10 ms base delay); persistently bad or damaged
// frames are skipped with pairing resynchronized; a frame with a NaN or
// Inf sample is rejected, while dead-line rejection stays off because
// flat scanlines are legitimate in low-texture imagery; a tracking
// failure costs only its pair. Surviving pairs stay bit-identical to an
// undamaged run.
//
// Each pair reaches emit in order, numbered from first: a tracked pair
// with its mean magnitude, and its SMF1 bytes when encode is set, or a
// dropped pair as skipped (a constituent frame was lost) or failed, with
// its cause. An emit error ends the run and is returned.
func StreamJob(ctx context.Context, src stream.Source, a Admitted, rowWorkers, first int, encode bool,
	emit func(ps PairSummary, smf []byte) error) (stream.Stats, error) {
	var emitErr error
	st, err := stream.StreamCtx(ctx, src, stream.Config{
		Params:       a.Params,
		Options:      a.Options,
		Workers:      1, // the pool or shard slot is the unit of concurrency
		RowWorkers:   rowWorkers,
		Retry:        stream.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		Skip:         stream.SkipPolicy{MaxSkips: -1},
		Gate:         &core.QualityGate{MaxBadFrac: 0, MaxDeadLineFrac: 1},
		IsolatePairs: true,
		OnPairDrop: func(pair int, cause error) {
			if emitErr != nil {
				return
			}
			status := PairFailed
			var fe *stream.FrameError
			if errors.As(cause, &fe) {
				status = PairSkipped
			}
			emitErr = emit(PairSummary{Pair: first + pair, Status: status, Error: cause.Error()}, nil)
		},
	}, func(pair int, res *core.Result) error {
		if emitErr != nil {
			return emitErr
		}
		var smf []byte
		if encode {
			var buf bytes.Buffer
			if err := NewMotionField("", res).WriteBinary(&buf); err != nil {
				return err
			}
			smf = buf.Bytes()
		}
		emitErr = emit(PairSummary{Pair: first + pair, Status: PairOK, MeanMag: res.Flow.MeanMagnitude()}, smf)
		return emitErr
	})
	if err == nil {
		err = emitErr
	}
	return st, err
}

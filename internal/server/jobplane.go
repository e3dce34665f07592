package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"time"

	"sma/internal/journal"
	"sma/internal/metrics"
)

// JobPlane is the half of /v1/jobs both serving roles share: the store
// their jobs live in, the durable journal and field files behind it (nil
// unless durable), the read and cancel handlers, and crash recovery.
// Each role keeps only its own admission and run loop — smaserve's
// stream pipeline, the coordinator's shard dispatch.
type JobPlane struct {
	Store  ResultStore
	Log    *JobLog
	Fields *FileStore
	// Jobs counts job lifecycle events ("restored", ...) by status in
	// the role's metrics.
	Jobs metrics.Vec[*metrics.Value]
	Logf func(format string, args ...any)
}

// httpError writes the JSON error body every endpoint answers with.
func (p *JobPlane) httpError(w http.ResponseWriter, code int, msg string) {
	WriteError(w, code, msg, p.Logf)
}

// WriteError answers code with the JSON error envelope, {"error":msg},
// on either role; logf reports a failed write.
func WriteError(w http.ResponseWriter, code int, msg string, logf func(string, ...any)) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := writeJSON(w, errorBody{Error: msg}); err != nil {
		logf("smaserve: writing error response: %v", err)
	}
}

// writeView writes a job view with the given status code.
func (p *JobPlane) writeView(w http.ResponseWriter, code int, view any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := writeJSON(w, view); err != nil {
		p.Logf("smaserve: writing job view: %v", err)
	}
}

// Accepted answers a successful POST /v1/jobs: 202, the job's Location
// and its view.
func (p *JobPlane) Accepted(w http.ResponseWriter, e JobEntry) {
	w.Header().Set("Location", "/v1/jobs/"+e.record().ID)
	p.writeView(w, http.StatusAccepted, e.Snapshot())
}

// lookup resolves {id} to a stored job, answering 404 when there is none.
func (p *JobPlane) lookup(w http.ResponseWriter, r *http.Request) JobEntry {
	v, ok := p.Store.Get(r.PathValue("id"))
	e, isJob := v.(JobEntry)
	if !ok || !isJob {
		p.httpError(w, http.StatusNotFound, "unknown or expired job id")
		return nil
	}
	return e
}

// JobListEntry is one row of GET /v1/jobs: enough for an operator to see
// what is queued, running, finished — and what recovery restored.
type JobListEntry struct {
	ID         string    `json:"id"`
	Status     JobStatus `json:"status"`
	Frames     int       `json:"frames"`
	PairsDone  int       `json:"pairs_done"`
	PairsTotal int       `json:"pairs_total"`
	AgeSec     float64   `json:"age_sec"`
	Recovered  string    `json:"recovered,omitempty"`
}

// JobListView is the JSON body of GET /v1/jobs.
type JobListView struct {
	Jobs []JobListEntry `json:"jobs"`
}

// HandleList serves GET /v1/jobs: live jobs, newest first. Stored values
// that are not jobs (tracks kept for SVG rendering) are skipped.
func (p *JobPlane) HandleList(w http.ResponseWriter, r *http.Request) {
	view := JobListView{Jobs: []JobListEntry{}}
	now := time.Now()
	p.Store.Range(func(id string, v any) bool {
		e, isJob := v.(JobEntry)
		if !isJob {
			return true
		}
		jv := e.record().View()
		view.Jobs = append(view.Jobs, JobListEntry{
			ID:         jv.ID,
			Status:     jv.Status,
			Frames:     jv.Frames,
			PairsDone:  len(jv.Pairs),
			PairsTotal: jv.Frames - 1,
			AgeSec:     now.Sub(jv.Created).Seconds(),
			Recovered:  jv.Recovered,
		})
		return true
	})
	sort.Slice(view.Jobs, func(i, k int) bool {
		if view.Jobs[i].AgeSec != view.Jobs[k].AgeSec {
			return view.Jobs[i].AgeSec < view.Jobs[k].AgeSec
		}
		return view.Jobs[i].ID < view.Jobs[k].ID
	})
	p.writeView(w, http.StatusOK, view)
}

// HandleGet serves GET /v1/jobs/{id}.
func (p *JobPlane) HandleGet(w http.ResponseWriter, r *http.Request) {
	if e := p.lookup(w, r); e != nil {
		p.writeView(w, http.StatusOK, e.Snapshot())
	}
}

// HandleResult serves GET /v1/jobs/{id}/result: a finished job's merged
// motion fields in the SMP1 pair-record framing. Only retaining jobs
// carry their fields; the stream is chunked (no Content-Length) so
// arbitrarily long sequences never buffer server-side.
func (p *JobPlane) HandleResult(w http.ResponseWriter, r *http.Request) {
	e := p.lookup(w, r)
	if e == nil {
		return
	}
	job := e.record()
	job.mu.Lock()
	status := job.status
	retain := job.retain
	fields := append([][]byte(nil), job.fields...)
	onDisk := append([]bool(nil), job.onDisk...)
	dropped := append([]PairSummary(nil), job.pairs...)
	job.mu.Unlock()
	if !retain {
		p.httpError(w, http.StatusConflict, "job was not created with retain; no result stream kept")
		return
	}
	if status != JobDone && status != JobFailed {
		p.httpError(w, http.StatusConflict, fmt.Sprintf("job is %s; result stream available once finished", status))
		return
	}
	if len(onDisk) > 0 {
		if err := p.Fields.LoadFields(job.ID, fields, onDisk); err != nil {
			p.httpError(w, http.StatusInternalServerError, fmt.Sprintf("reading retained fields: %v", err))
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := WritePairStream(w, fields, dropped); err != nil {
		// Headers are gone; all we can do is log and cut the connection.
		p.Logf("smaserve: streaming job result %s: %v", job.ID, err)
	}
}

// HandleCancel serves DELETE /v1/jobs/{id}.
func (p *JobPlane) HandleCancel(w http.ResponseWriter, r *http.Request) {
	e := p.lookup(w, r)
	if e == nil {
		return
	}
	if !e.record().Cancel() {
		p.httpError(w, http.StatusConflict, fmt.Sprintf("job is %s; nothing to cancel", e.record().View().Status))
		return
	}
	p.writeView(w, http.StatusOK, e.Snapshot())
}

// RecoveryStats summarizes what Recover rebuilt.
type RecoveryStats struct {
	// Restored jobs were terminal in the journal and are retrievable again.
	Restored int `json:"restored"`
	// Resumed jobs were mid-flight (or drain-pending) and were resubmitted
	// from their last checkpoint.
	Resumed int `json:"resumed"`
	// OrphanDirs is how many on-disk field directories had no live job.
	OrphanDirs int `json:"orphan_dirs"`
	// Journal carries the WAL repair stats (torn tails, corruption).
	Journal journal.ReplayStats `json:"journal"`
}

// Recover is crash recovery's one skeleton: replay the journal, compact
// it to the live jobs, restore terminal jobs into the store, sweep
// orphaned field directories, and resume interrupted jobs. The roles
// differ only in the hooks: restore wraps a terminal job's record (see
// Restored) in the value the role stores, and resume is the role's
// resume policy. A no-op without a journal. ctx parents the resumed
// jobs' lifetimes exactly as a submitting request would.
func (p *JobPlane) Recover(ctx context.Context, restore func(*RecoveredJob) JobEntry, resume func(context.Context, *RecoveredJob) error) (RecoveryStats, error) {
	var rs RecoveryStats
	if p.Log == nil {
		return rs, nil
	}
	recs, jst, err := p.Log.Replay()
	rs.Journal = jst
	if err != nil {
		return rs, err
	}
	// Compact before resubmitting: resumed jobs append new checkpoints
	// concurrently, and Compact must not race them.
	if err := p.Log.Compact(recs); err != nil {
		return rs, err
	}

	live := map[string]bool{}
	var interrupted []*RecoveredJob
	for _, r := range recs {
		live[r.ID] = true
		switch {
		case !r.Ended:
			interrupted = append(interrupted, r)
		case r.Frames < 2:
			p.Logf("smaserve: job %s unrestorable (frames=%d)", r.ID, r.Frames)
		default:
			p.Store.Put(r.ID, restore(r))
			p.Jobs.With("restored").Inc()
			rs.Restored++
		}
	}
	n, err := p.Fields.SweepOrphans(func(id string) bool { return live[id] })
	rs.OrphanDirs = n
	if err != nil {
		p.Logf("smaserve: recovery orphan sweep: %v", err)
	}
	for _, r := range interrupted {
		if err := resume(ctx, r); err != nil {
			p.Logf("smaserve: resuming job %s: %v", r.ID, err)
			continue
		}
		rs.Resumed++
	}
	return rs, nil
}

// Restored rebuilds a terminal job's record from its journal state. With
// retain, its ok pairs' fields are checked on disk and stay there.
func (p *JobPlane) Restored(r *RecoveredJob, retain bool) *Job {
	job := NewJob(r.ID, r.Frames, retain, nil)
	job.status = r.Status
	job.created, job.started, job.finished = r.Created, r.Created, r.Created
	job.stats = r.Stats
	job.errMsg = r.ErrMsg
	job.recovered = "restored"
	p.reseat(job, r.Pairs)
	return job
}

// ResumedJob opens the record of an interrupted job its role resubmits:
// created when first accepted and marked resumed. The role's resume
// policy re-seats whatever checkpoints it trusts.
func ResumedJob(r *RecoveredJob, retain bool, cancel context.CancelFunc) *Job {
	job := NewJob(r.ID, r.Frames, retain, cancel)
	job.created = r.Created
	job.recovered = "resumed"
	return job
}

// reseat appends checkpointed pairs to a recovered job, checking that
// every ok pair's field reads back when the job retains.
func (p *JobPlane) reseat(job *Job, pairs []PairSummary) {
	var missing []int
	if job.retain {
		missing = p.MissingFields(job.ID, pairs)
	}
	job.Reseat(pairs, missing)
}

// MissingFields reads back the checkpointed field of every ok pair and
// returns the pairs whose field is gone or unreadable. The bytes are only
// checked, not kept. The checkpoint said each field was durable, so an
// absence means disk damage outside the journal's control: each is
// logged loudly.
func (p *JobPlane) MissingFields(id string, pairs []PairSummary) []int {
	var missing []int
	for _, ps := range pairs {
		if ps.Status != PairOK {
			continue
		}
		if _, ok, err := p.Fields.Field(id, ps.Pair); err != nil || !ok {
			p.Logf("smaserve: job %s pair %d: checkpointed field missing (ok=%v err=%v)", id, ps.Pair, ok, err)
			missing = append(missing, ps.Pair)
		}
	}
	return missing
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"time"

	"sma/internal/core"
	"sma/internal/fault"
	"sma/internal/grid"
	"sma/internal/stream"
)

// TrackRequest is the JSON form of POST /v1/track: a synthetic dataset
// reference standing in for an upload. (Uploads use multipart/form-data
// with PGM or AREA files in fields i0 and i1 instead.)
type TrackRequest struct {
	Synthetic *SyntheticRef `json:"synthetic,omitempty"`
	Params    ParamsSpec    `json:"params"`
	Robust    bool          `json:"robust,omitempty"`
	// Pyramid requests the summed-window exhaustive search (continuous
	// model only; absent = the default block kernel, bit-exact).
	Pyramid *PyramidSpec `json:"pyramid,omitempty"`
	Format  string       `json:"format,omitempty"` // json (default) | binary
}

// JobRequest is the JSON form of POST /v1/jobs: an asynchronous
// multi-frame sequence run on the streaming pipeline. An optional Fault
// spec injects a seeded fault schedule into the job's source — the knob
// the chaos harness turns to exercise degraded-mode serving end to end.
type JobRequest struct {
	Synthetic *SyntheticRef `json:"synthetic"`
	Params    ParamsSpec    `json:"params"`
	Robust    bool          `json:"robust,omitempty"`
	// Pyramid requests the summed-window exhaustive search for every
	// pair of the sequence (continuous model only). The spec is journaled
	// with the job, so durable restarts and cluster shards resume with
	// the same search mode.
	Pyramid *PyramidSpec `json:"pyramid,omitempty"`
	Fault   *FaultSpec   `json:"fault,omitempty"`
	// Retain keeps each surviving pair's SMF1-encoded motion field so the
	// finished job can be streamed back from GET /v1/jobs/{id}/result —
	// the surface the cluster merges shards through and the bit-identity
	// checks compare against. Off by default: retention is charged against
	// the result store's byte cap.
	Retain bool `json:"retain,omitempty"`
}

// trackInput is a parsed track request, whichever wire form it arrived in.
type trackInput struct {
	pair   core.Pair
	params core.Params
	opt    core.Options
	format string
}

func (s *Server) parseTrackRequest(r *http.Request) (trackInput, error) {
	var in trackInput
	ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return in, fmt.Errorf("bad Content-Type: %w", err)
	}
	switch {
	case ct == "application/json":
		var req TrackRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return in, fmt.Errorf("bad JSON body: %w", err)
		}
		if req.Synthetic == nil {
			return in, errors.New("JSON track requests need a synthetic dataset reference (or upload frames as multipart/form-data)")
		}
		scene, err := req.Synthetic.SceneOf()
		if err != nil {
			return in, err
		}
		t0 := req.Synthetic.T0
		in.pair = core.Monocular(scene.Frame(float64(t0)), scene.Frame(float64(t0+1)))
		in.params, err = req.Params.Resolve(s.cfg.DefaultParams)
		if err != nil {
			return in, err
		}
		pyr, err := req.Pyramid.Resolve(in.params)
		if err != nil {
			return in, err
		}
		in.opt = core.Options{Robust: req.Robust, Pyramid: pyr}
		in.format = req.Format
	case ct == "multipart/form-data":
		if err := r.ParseMultipartForm(s.cfg.MaxBodyBytes); err != nil {
			return in, fmt.Errorf("bad multipart body: %w", err)
		}
		i0, err := formImage(r, "i0")
		if err != nil {
			return in, err
		}
		i1, err := formImage(r, "i1")
		if err != nil {
			return in, err
		}
		in.pair = core.Monocular(i0, i1)
		spec := ParamsSpec{
			NS:  formInt(r, "ns"),
			NZS: formInt(r, "nzs"),
			NZT: formInt(r, "nzt"),
			NST: formInt(r, "nst"),
		}
		if v := r.FormValue("nss"); v != "" {
			nss, err := strconv.Atoi(v)
			if err != nil {
				return in, fmt.Errorf("bad nss %q", v)
			}
			spec.NSS = &nss
		}
		in.params, err = spec.Resolve(s.cfg.DefaultParams)
		if err != nil {
			return in, err
		}
		var pspec *PyramidSpec
		if v := r.FormValue("pyramid-levels"); v != "" {
			levels, err := strconv.Atoi(v)
			if err != nil {
				return in, fmt.Errorf("bad pyramid-levels %q", v)
			}
			pspec = &PyramidSpec{Levels: levels}
		}
		pyr, err := pspec.Resolve(in.params)
		if err != nil {
			return in, err
		}
		in.opt = core.Options{Robust: r.FormValue("robust") == "true", Pyramid: pyr}
		in.format = r.FormValue("format")
	default:
		return in, fmt.Errorf("unsupported Content-Type %q (want application/json or multipart/form-data)", ct)
	}
	if in.format == "" {
		in.format = "json"
	}
	if in.format != "json" && in.format != "binary" {
		return in, fmt.Errorf("unknown format %q (want json or binary)", in.format)
	}
	if err := in.pair.Validate(); err != nil {
		return in, err
	}
	if px := in.pair.I0.W * in.pair.I0.H; px > s.cfg.MaxPixels {
		return in, fmt.Errorf("frame area %d px exceeds the serving cap %d", px, s.cfg.MaxPixels)
	}
	return in, nil
}

func formInt(r *http.Request, key string) int {
	n, err := strconv.Atoi(r.FormValue(key))
	if err != nil {
		return 0
	}
	return n
}

func formImage(r *http.Request, field string) (*grid.Grid, error) {
	f, _, err := r.FormFile(field)
	if err != nil {
		return nil, fmt.Errorf("missing upload field %q: %w", field, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("reading upload %q: %w", field, err)
	}
	g, err := DecodeImage(data)
	if err != nil {
		return nil, fmt.Errorf("upload %q: %w", field, err)
	}
	return g, nil
}

func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	in, err := s.parseTrackRequest(r)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return
		}
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.TrackTimeout)
	defer cancel()
	res, code, err := s.runTrack(ctx, in.pair, in.params, in.opt)
	if err != nil {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			s.rejectSaturated(w, code)
			return
		}
		s.httpError(w, code, err.Error())
		return
	}
	s.metrics.pairs.Inc()
	s.metrics.fitsComputed.Add(2)

	id, err := s.storeTrack(res, in.pair.I0, in.params)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	field := NewMotionField(id, res)
	w.Header().Set("X-Sma-Track-Id", id)
	switch in.format {
	case "binary":
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := field.WriteBinary(w); err != nil {
			s.cfg.Logf("smaserve: writing binary response: %v", err)
		}
	default:
		w.Header().Set("Content-Type", "application/json")
		if err := writeJSON(w, field); err != nil {
			s.cfg.Logf("smaserve: writing json response: %v", err)
		}
	}
}

// runTrack prepares and tracks one pair on the worker pool under the
// request deadline. The returned int is the HTTP status on error.
func (s *Server) runTrack(ctx context.Context, pair core.Pair, p core.Params, opt core.Options) (*core.Result, int, error) {
	type outcome struct {
		res *core.Result
		err error
	}
	done := make(chan outcome, 1)
	submitErr := s.pool.Submit(func(poolCtx context.Context) {
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		stopWatch := context.AfterFunc(poolCtx, cancel)
		defer stopWatch()
		if err := runCtx.Err(); err != nil {
			done <- outcome{err: err} // deadline passed while queued
			return
		}
		prep, err := core.Prepare(pair, p)
		if err != nil {
			done <- outcome{err: err}
			return
		}
		sm, err := core.BuildSemiMapCtx(runCtx, prep, s.rowWorkers)
		if err != nil {
			done <- outcome{err: err}
			return
		}
		res, err := core.TrackPreparedParallelCtx(runCtx, prep, sm, opt, s.rowWorkers)
		done <- outcome{res: res, err: err}
	})
	switch {
	case errors.Is(submitErr, ErrSaturated):
		return nil, http.StatusTooManyRequests, submitErr
	case errors.Is(submitErr, ErrShuttingDown):
		return nil, http.StatusServiceUnavailable, submitErr
	case submitErr != nil:
		return nil, http.StatusInternalServerError, submitErr
	}
	select {
	case out := <-done:
		if out.err != nil {
			if errors.Is(out.err, context.DeadlineExceeded) {
				return nil, http.StatusGatewayTimeout, out.err
			}
			if errors.Is(out.err, context.Canceled) {
				return nil, statusClientClosedRequest, out.err
			}
			return nil, http.StatusUnprocessableEntity, out.err
		}
		return out.res, http.StatusOK, nil
	case <-ctx.Done():
		// The task sees the same ctx and will abort on its own; free the
		// handler now so slow tracks cannot pile up connections.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, http.StatusGatewayTimeout, ctx.Err()
		}
		return nil, statusClientClosedRequest, ctx.Err()
	}
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err))
		return
	}
	if req.Synthetic == nil {
		s.httpError(w, http.StatusBadRequest, "jobs need a synthetic dataset reference")
		return
	}
	frames := req.Synthetic.Frames
	if frames < 2 {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("need at least 2 frames, got %d", frames))
		return
	}
	if frames > s.cfg.MaxFrames {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("%d frames exceeds the serving cap %d", frames, s.cfg.MaxFrames))
		return
	}
	params, err := req.Params.Resolve(s.cfg.DefaultParams)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	pyr, err := req.Pyramid.Resolve(params)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	src, err := jobSource(*req.Synthetic, frames)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Fault != nil {
		plan, err := req.Fault.plan(frames)
		if err != nil {
			s.httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		src = fault.WrapSource(src, plan)
	}
	if px := req.Synthetic.Size * req.Synthetic.Size; px > s.cfg.MaxPixels {
		s.httpError(w, http.StatusBadRequest, fmt.Sprintf("frame area %d px exceeds the serving cap %d", px, s.cfg.MaxPixels))
		return
	}

	id, err := NewID()
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The job deliberately outlives the submitting request: derive from
	// the request context without its cancellation, so request-scoped
	// values survive but a client disconnect cannot kill a queued job
	// (DELETE /v1/jobs/{id} is the cancellation surface).
	jobCtx, jobCancel := context.WithCancel(context.WithoutCancel(r.Context()))
	job := NewJob(id, frames, req.Retain, jobCancel)
	opt := core.Options{Robust: req.Robust, Pyramid: pyr}

	// The spec must be durable before the job is acknowledged: a crash
	// after the 202 then finds the job in the journal and resumes it.
	if s.jlog != nil {
		if err := s.jlog.Spec(id, &req, frames, job.created); err != nil {
			jobCancel()
			s.httpError(w, http.StatusInternalServerError, fmt.Sprintf("journaling job: %v", err))
			return
		}
	}

	submitErr := s.pool.Submit(func(poolCtx context.Context) {
		s.runJob(poolCtx, jobCtx, job, src, params, opt)
	})
	if submitErr != nil {
		jobCancel()
		if s.jlog != nil {
			s.jlog.Delete(id) // never ran; do not resurrect it on restart
		}
		if errors.Is(submitErr, ErrSaturated) || errors.Is(submitErr, ErrShuttingDown) {
			s.rejectSaturated(w, http.StatusServiceUnavailable)
			return
		}
		s.httpError(w, http.StatusInternalServerError, submitErr.Error())
		return
	}
	s.store.Put(id, job)
	s.metrics.jobs.With("created").Inc()
	s.jobs.Accepted(w, job)
}

// runJob executes one multi-frame job on the streaming pipeline inside a
// pool slot. Cancellation arrives three ways — explicit DELETE, the job
// timeout, and a forced shutdown drain — all merged into one context.
func (s *Server) runJob(poolCtx, jobCtx context.Context, job *Job, src stream.Source, p core.Params, opt core.Options) {
	ctx, cancel := context.WithTimeout(jobCtx, s.cfg.JobTimeout)
	defer cancel()
	stopWatch := context.AfterFunc(poolCtx, cancel)
	defer stopWatch()

	if err := ctx.Err(); err != nil {
		// Cancelled while queued. A shutdown drain is not a user decision:
		// checkpoint the job as pending (it stays queued) so recovery
		// resumes it, instead of silently abandoning queued work the way
		// SIGTERM used to.
		if s.draining.Load() && s.jlog != nil {
			s.jlog.Pending(job.ID)
			s.metrics.jobs.With("pending").Inc()
			return
		}
		job.mu.Lock()
		job.status = JobCancelled
		job.finished = time.Now()
		job.mu.Unlock()
		s.metrics.jobs.With(string(JobCancelled)).Inc()
		if s.jlog != nil {
			s.jlog.End(job.ID, JobCancelled, "", stream.Stats{})
		}
		return
	}
	job.Start()

	st, err := stream.StreamCtx(ctx, src, stream.Config{
		Params:     p,
		Options:    opt,
		Workers:    1, // the pool slot is the unit of concurrency
		RowWorkers: s.rowWorkers,
		// Degraded-mode serving: transient frame errors are retried,
		// persistently bad or damaged frames are skipped with pairing
		// resynchronized, and a tracking failure costs only its pair.
		// Surviving pairs stay bit-identical to an undamaged run.
		Retry: stream.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		Skip:  stream.SkipPolicy{MaxSkips: -1},
		// NaN/Inf-strict; dead-line rejection stays off because flat
		// scanlines are legitimate in low-texture imagery.
		Gate:         &core.QualityGate{MaxBadFrac: 0, MaxDeadLineFrac: 1},
		IsolatePairs: true,
		OnPairDrop: func(pair int, cause error) {
			// pairOffset maps a resumed pipeline's indices onto the original
			// sequence (zero for ordinary jobs).
			pair += job.pairOffset
			status := PairFailed
			var fe *stream.FrameError
			if errors.As(cause, &fe) {
				status = PairSkipped
			}
			ps := PairSummary{Pair: pair, Status: status, Error: cause.Error()}
			job.AddPair(ps, nil)
			if s.jlog != nil {
				s.jlog.Pair(job.ID, ps)
				fault.Crash("server.pair")
			}
		},
	}, func(pair int, res *core.Result) error {
		pair += job.pairOffset
		var smf []byte
		if job.retain {
			var buf bytes.Buffer
			if err := NewMotionField("", res).WriteBinary(&buf); err != nil {
				return err
			}
			smf = buf.Bytes()
		}
		ps := PairSummary{Pair: pair, Status: PairOK, MeanMag: res.Flow.MeanMagnitude()}
		job.AddPair(ps, smf)
		if s.jlog != nil {
			// Checkpoint ordering: the field bytes must be durable BEFORE
			// the pair event, so replay never references a missing field. A
			// failed field write skips the checkpoint (the pair re-runs on
			// resume) — durability degrades, correctness does not.
			if smf != nil {
				if err := s.fstore.PutField(job.ID, pair, smf); err != nil {
					s.cfg.Logf("smaserve: persisting field %d of %s: %v", pair, job.ID, err)
					return nil
				}
				job.Spill(pair)
			}
			s.jlog.Pair(job.ID, ps)
			fault.Crash("server.pair")
		}
		return nil
	})

	// A resumed job's pipeline stats cover only the re-run window; fold
	// the checkpointed prefix back in so totals match an uninterrupted
	// run (fit-cache counters died with the old process and stay zero).
	// Metrics below charge only the work this process actually did.
	run := st
	st.Add(job.prefix)
	job.AddStats(st)
	status, errMsg := job.Finish(err, fmt.Sprintf("job exceeded its %v deadline", s.cfg.JobTimeout))
	if s.jlog != nil {
		if status == JobCancelled && s.draining.Load() {
			// The drain, not the user, cancelled this run: mark it pending
			// so recovery resumes it from the pairs already checkpointed.
			s.jlog.Pending(job.ID)
			s.metrics.jobs.With("pending").Inc()
		} else {
			s.jlog.End(job.ID, status, errMsg, st)
			s.metrics.jobs.With(string(status)).Inc()
		}
	} else {
		s.metrics.jobs.With(string(status)).Inc()
	}
	m := s.metrics
	m.pairs.Add(run.PairsTracked)
	m.fitsComputed.Add(run.FitsComputed)
	m.fitsReused.Add(run.FitsReused)
	m.retries.Add(run.Retries)
	m.framesSkipped.Add(run.FramesSkipped)
	m.pairsSkipped.Add(run.PairsSkipped)
	m.pairsFailed.Add(run.PairsFailed)
	m.gaps.Add(run.Gaps)
}

// contentTypeIsJSON is a small helper for tests.
func contentTypeIsJSON(h http.Header) bool {
	return strings.HasPrefix(h.Get("Content-Type"), "application/json")
}

// Package server implements smaserve: the production HTTP face of the
// SMA tracker. It exposes synchronous pair tracking (POST /v1/track),
// asynchronous multi-frame jobs on the streaming pipeline (POST /v1/jobs,
// GET /v1/jobs/{id}), SVG rendering of stored motion fields
// (GET /v1/track/{id}/svg), and the operational endpoints /healthz,
// /readyz and /metrics (Prometheus text format).
//
// The serving model is deliberately boring: a bounded admission queue in
// front of a fixed worker pool (backpressure instead of memory growth),
// per-request deadlines threaded as context.Context down to the row loops
// of the tracker, request body size limits, panic recovery, an in-memory
// TTL result store, and graceful shutdown that drains in-flight work.
// See docs/SERVER.md.
package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/metrics"
	"sma/internal/viz"
)

// Config sizes the server's production behaviors. Zero values take the
// documented defaults.
type Config struct {
	// Workers is the tracking worker pool size (0 = GOMAXPROCS). The pool
	// is shared by synchronous tracks and asynchronous jobs.
	Workers int
	// QueueDepth bounds the admission queue (0 = 2×Workers). A full queue
	// rejects with 429 (tracks) or 503 (jobs) plus Retry-After.
	QueueDepth int
	// MaxBodyBytes caps request bodies (0 = 32 MiB).
	MaxBodyBytes int64
	// TrackTimeout is the synchronous per-request deadline (0 = 60s),
	// threaded into the tracker as a context.
	TrackTimeout time.Duration
	// JobTimeout bounds one asynchronous job's run time (0 = 10 min).
	JobTimeout time.Duration
	// ResultTTL is how long finished tracks and jobs stay retrievable
	// (0 = 15 min).
	ResultTTL time.Duration
	// MaxStoredResults caps how many finished tracks and jobs the default
	// store retains (0 = 4096); beyond it, least-recently-used entries are
	// evicted immediately rather than waiting for TTL expiry.
	MaxStoredResults int
	// MaxStoredBytes caps the default store's resident bytes (0 = 256 MiB).
	MaxStoredBytes int64
	// DataDir enables the durable job plane (use Open, not New): job
	// specs, pair checkpoints, and terminal statuses are journaled under
	// DataDir/journal and retained result bytes persisted under
	// DataDir/fields, so Recover can restore finished jobs and resume
	// interrupted ones after a crash.
	DataDir string
	// MaxFrames caps a job's sequence length (0 = 512).
	MaxFrames int
	// MaxPixels caps uploaded/synthetic frame area (0 = 1<<22, i.e. 2048²)
	// and, through it, the semi-fluid map a request may ask for (Limits).
	MaxPixels int
	// RowWorkers overrides the per-pair row fan-out (0 = GOMAXPROCS /
	// Workers). Cluster evaluation pins it to 1 so N co-located worker
	// processes genuinely divide the host instead of each saturating it.
	RowWorkers int
	// Logf receives serving events (nil = log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.TrackTimeout <= 0 {
		c.TrackTimeout = 60 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.MaxFrames <= 0 {
		c.MaxFrames = DefaultMaxFrames
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = DefaultMaxPixels
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the HTTP motion-tracking service.
type Server struct {
	cfg     Config
	pool    *Pool
	metrics *serverMetrics
	mux     *http.ServeMux

	ready    atomic.Bool
	draining atomic.Bool

	// jobs holds the result store (tracks and jobs) and, with
	// Config.DataDir, the journal and field files behind it; it serves
	// /v1/jobs reads, cancels and recovery, as on the coordinator.
	jobs *JobPlane

	// rowWorkers stripes each tracked pair across this many goroutines so
	// one request cannot monopolize the host while others queue, yet a
	// lone request still uses the whole machine.
	rowWorkers int
}

// serverMetrics are smaserve's /metrics families. The pipeline work and
// degraded-mode counters accumulate across all tracks and jobs.
type serverMetrics struct {
	*metrics.Registry
	requests, jobs metrics.Vec[*metrics.Value]
	latency        metrics.Vec[*metrics.Histogram]

	inflight, rejected, panics, evicted, pairs, fitsComputed, fitsReused,
	retries, framesSkipped, pairsSkipped, pairsFailed, gaps *metrics.Value
}

func newServerMetrics(s *Server) *serverMetrics {
	r := &metrics.Registry{}
	m := &serverMetrics{Registry: r}
	m.requests = r.CounterVec("smaserve_http_requests_total", "Served HTTP requests by route and status code.", "route", "code")
	m.latency = r.HistogramVec("smaserve_http_request_duration_seconds", "Request latency by route.", "route")
	m.jobs = r.CounterVec("smaserve_jobs_total", "Job lifecycle transitions by status.", "status")
	m.rejected = r.Counter("smaserve_admission_rejected_total", "Requests rejected because the admission queue was full.")
	m.panics = r.Counter("smaserve_handler_panics_total", "Handler panics recovered into 500 responses.")
	m.evicted = r.Counter("smaserve_results_evicted_total", "Stored results dropped by TTL expiry or by the entry-count or byte cap.")
	m.pairs = r.Counter("smaserve_pairs_tracked_total", "Motion-field pairs computed across all requests and jobs.")
	m.fitsComputed = r.Counter("smaserve_frame_fits_computed_total", "Frame surface fits computed (stream cache misses).")
	m.fitsReused = r.Counter("smaserve_frame_fits_reused_total", "Frame surface fits reused from the stream cache.")
	m.retries = r.Counter("smaserve_frame_retries_total", "Frame re-reads after transient source errors.")
	m.framesSkipped = r.Counter("smaserve_frames_skipped_total", "Frames dropped by the skip policy or quality gate.")
	m.pairsSkipped = r.Counter("smaserve_pairs_skipped_total", "Pairs lost because a constituent frame was dropped.")
	m.pairsFailed = r.Counter("smaserve_pairs_failed_total", "Pairs dropped by isolated per-pair tracking failures.")
	m.gaps = r.Counter("smaserve_stream_gaps_total", "Maximal runs of consecutive skipped frames.")
	m.inflight = r.Gauge("smaserve_inflight_requests", "Requests currently being served.")
	r.GaugeFunc("smaserve_admission_queue_depth", "Tasks waiting in the admission queue.", func() int64 { return int64(s.pool.Depth()) })
	r.GaugeFunc("smaserve_admission_queue_capacity", "Admission queue capacity.", func() int64 { return int64(s.pool.Cap()) })
	r.GaugeFunc("smaserve_worker_pool_size", "Tracking worker goroutines.", func() int64 { return int64(s.pool.Workers()) })
	r.Goroutines("smaserve_goroutines", "Live goroutines in the serving process (leak canary for the chaos harness).")
	r.Uptime("smaserve_uptime_seconds", "Seconds since the server started.")
	return m
}

// New builds a ready-to-serve Server over an in-memory job plane
// (Config.DataDir is ignored; Open attaches the durable one).
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start(memPlane(s.planeConfig()))
	return s
}

// Open builds a Server like New and, when cfg.DataDir is set, attaches
// the durable job plane: a FileStore for result bytes and a write-ahead
// journal for job state. Call Recover before serving to replay the
// journal and resume interrupted jobs.
func Open(cfg Config) (*Server, error) {
	s := newServer(cfg)
	jobs, err := OpenJobPlane(s.planeConfig())
	if err != nil {
		return nil, err
	}
	s.start(jobs)
	return s, nil
}

func newServer(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults()}
	s.metrics = newServerMetrics(s)
	return s
}

// planeConfig sizes the job plane from the config; evictions count in
// the server's metrics.
func (s *Server) planeConfig() PlaneConfig {
	return PlaneConfig{
		MemStoreConfig: MemStoreConfig{
			TTL:        s.cfg.ResultTTL,
			MaxEntries: s.cfg.MaxStoredResults,
			MaxBytes:   s.cfg.MaxStoredBytes,
			OnEvict:    func(n int) { s.metrics.evicted.Add(int64(n)) },
		},
		DataDir: s.cfg.DataDir,
		Jobs:    s.metrics.jobs,
		Logf:    s.cfg.Logf,
	}
}

// start starts the worker pool over the job plane and mounts the routes.
func (s *Server) start(jobs *JobPlane) {
	cfg := s.cfg
	s.jobs = jobs
	s.pool = NewPool(cfg.Workers, cfg.QueueDepth)
	s.rowWorkers = cfg.RowWorkers
	if s.rowWorkers <= 0 {
		s.rowWorkers = runtime.GOMAXPROCS(0) / s.pool.Workers()
	}
	if s.rowWorkers < 1 {
		s.rowWorkers = 1
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/track", s.instrument("/v1/track", s.handleTrack))
	mux.HandleFunc("POST /v1/jobs", s.instrument("/v1/jobs", s.handleJobCreate))
	mux.HandleFunc("GET /v1/jobs", s.instrument("/v1/jobs", s.jobs.HandleList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.jobs.HandleGet))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrument("/v1/jobs/{id}/result", s.jobs.HandleResult))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.jobs.HandleCancel))
	mux.HandleFunc("GET /v1/track/{id}/svg", s.instrument("/v1/track/{id}/svg", s.handleTrackSVG))
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.metrics.Handler(cfg.Logf)))
	s.mux = mux
	s.ready.Store(true)
}

// limits are the caps this server admits requests under.
func (s *Server) limits() Limits {
	return Limits{MaxFrames: s.cfg.MaxFrames, MaxPixels: s.cfg.MaxPixels}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the server: readiness flips to 503 immediately, then
// queued and in-flight tracking work runs to completion (or until ctx
// expires, which aborts it through the tasks' contexts), and the result
// store's sweeper stops. Call after http.Server.Shutdown has stopped new
// connections.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ready.Store(false)
	err := s.pool.Shutdown(ctx)
	if cerr := s.jobs.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// instrument wraps a handler with the serving middleware: body size
// limits, panic recovery (500, process survives), and request metrics.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.metrics.inflight.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Inc()
				s.cfg.Logf("smaserve: panic serving %s: %v", route, p)
				if rec.code == 0 {
					s.httpError(rec, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
				}
			}
			s.metrics.inflight.Add(-1)
			code := rec.code
			if code == 0 {
				code = http.StatusOK
			}
			s.metrics.requests.With(route, strconv.Itoa(code)).Inc()
			s.metrics.latency.With(route).Observe(time.Since(start))
		}()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		h(rec, r)
	}
}

func (s *Server) httpError(w http.ResponseWriter, code int, msg string) {
	WriteError(w, code, msg, s.cfg.Logf)
}

// rejectSaturated writes the backpressure response: Retry-After plus the
// requested status (429 for synchronous tracks, 503 for jobs).
func (s *Server) rejectSaturated(w http.ResponseWriter, code int) {
	s.metrics.rejected.Inc()
	w.Header().Set("Retry-After", "1")
	s.httpError(w, code, "admission queue full; retry later")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() || s.draining.Load() {
		s.httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleTrackSVG(w http.ResponseWriter, r *http.Request) {
	v, ok := s.jobs.Store.Get(r.PathValue("id"))
	tr, isTrack := v.(*TrackResult)
	if !ok || !isTrack {
		s.httpError(w, http.StatusNotFound, "unknown or expired track id")
		return
	}
	var opt viz.QuiverOptions
	if step, err := strconv.Atoi(r.URL.Query().Get("step")); err == nil && step > 0 {
		opt.Step = step
	}
	if scale, err := strconv.ParseFloat(r.URL.Query().Get("scale"), 64); err == nil && scale > 0 {
		opt.Scale = scale
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	if err := tr.WriteSVG(w, opt); err != nil {
		s.cfg.Logf("smaserve: svg render: %v", err)
	}
}

// statusClientClosedRequest is nginx's convention for a client that went
// away mid-request; there is no stdlib constant.
const statusClientClosedRequest = 499

// storeTrack assigns an id and retains the result for SVG rendering.
func (s *Server) storeTrack(res *core.Result, bg *grid.Grid, p core.Params) (string, error) {
	id, err := NewID()
	if err != nil {
		return "", err
	}
	tr, err := newTrackResult(id, res.Flow, bg, p)
	if err != nil {
		return "", err
	}
	s.jobs.Store.Put(id, tr)
	return id, nil
}

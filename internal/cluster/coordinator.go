package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sma/internal/core"
	"sma/internal/metrics"
	"sma/internal/server"
)

// Config sizes the coordinator. Zero values take the documented defaults.
type Config struct {
	// Workers are the worker base URLs (required, ≥ 1).
	Workers []string
	// ShardPairs is the contiguous pair range per shard (0 = 8). Larger
	// shards amortize more prepared-surface reuse per node; smaller shards
	// spread a short job across more nodes.
	ShardPairs int
	// MaxJobs bounds concurrently running cluster jobs (0 = 4); beyond it
	// job creation answers 503 + Retry-After.
	MaxJobs int
	// MaxFrames caps a job's sequence length (0 = 512).
	MaxFrames int
	// MaxPixels caps synthetic frame area (0 = 1<<22).
	MaxPixels int
	// JobTimeout bounds one job's wall clock (0 = 10 min).
	JobTimeout time.Duration
	// ResultTTL is how long finished jobs stay retrievable (0 = 15 min).
	ResultTTL time.Duration
	// MaxStoredResults / MaxStoredBytes size the result store's caps
	// (0 = the store defaults).
	MaxStoredResults int
	MaxStoredBytes   int64
	// DataDir, when set, makes the coordinator durable: job state is
	// write-ahead journaled and merged shard fields persist on disk, so a
	// crashed or killed coordinator resumes interrupted jobs on restart —
	// re-dispatching only their unfinished shards. Call Recover after New.
	DataDir string
	// HealthInterval paces worker heartbeats (0 = 1s).
	HealthInterval time.Duration
	// RetryDelay spaces same-node transient retries (0 = 50ms).
	RetryDelay time.Duration
	// DefaultParams seeds request parameter resolution (zero value =
	// core.ScaledParams).
	DefaultParams core.Params
	// Client is the HTTP client for shard dispatch and heartbeats
	// (nil = a client with a 2s dial posture and no overall timeout —
	// shard responses stream for as long as tracking takes).
	Client *http.Client
	// Logf receives coordinator events (nil = log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.ShardPairs <= 0 {
		c.ShardPairs = 8
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4
	}
	if c.MaxFrames <= 0 {
		c.MaxFrames = 512
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = 1 << 22
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 15 * time.Minute
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	if (c.DefaultParams == core.Params{}) {
		c.DefaultParams = core.ScaledParams()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Coordinator is the cluster's HTTP face: the /v1/jobs API of a single
// smaserve, executed by sharding across the configured workers.
type Coordinator struct {
	cfg     Config
	reg     *Registry
	store   server.ResultStore
	jl      *server.JobLog
	fstore  *server.FileStore
	jobs    *server.JobPlane // reads, cancels and recovery over the three above
	metrics coordMetrics
	mux     *http.ServeMux
	client  *http.Client

	retryDelay time.Duration

	jobSlots chan struct{}
	wg       sync.WaitGroup
	ready    atomic.Bool
	draining atomic.Bool
	rr       atomic.Uint64 // round-robin cursor for the track proxy
}

// coordMetrics are the coordinator's /metrics families. The unlabeled
// smaserve_cluster_* counters mirror the job views' cluster blocks, which
// the chaos drill asserts against; smaserve_goroutines keeps the
// single-node family name so one leak canary covers both roles.
type coordMetrics struct {
	*metrics.Registry
	jobs metrics.Vec[*metrics.Value]

	shards, dispatchRetries, reassigned, nodesLost, pairs, rejected *metrics.Value
}

func newCoordMetrics(reg *Registry) coordMetrics {
	r := &metrics.Registry{}
	m := coordMetrics{Registry: r}
	m.jobs = r.CounterVec("smaserve_cluster_jobs_total", "Coordinator job lifecycle transitions by status.", "status")
	m.shards = r.Counter("smaserve_cluster_shards_total", "Shards dispatched across all finished jobs.")
	m.dispatchRetries = r.Counter("smaserve_cluster_dispatch_retries_total", "Failed shard dispatch attempts (dead-node hops plus transient retries).")
	m.reassigned = r.Counter("smaserve_cluster_shards_reassigned_total", "Shards completed on a node other than their affinity home.")
	m.nodesLost = r.Counter("smaserve_cluster_nodes_lost_total", "Dead nodes encountered by placement walks, summed per job.")
	m.pairs = r.Counter("smaserve_cluster_pairs_merged_total", "Per-pair records merged from worker shard streams.")
	m.rejected = r.Counter("smaserve_cluster_rejected_total", "Jobs rejected because the coordinator's admission slots were full.")
	r.GaugeFunc("smaserve_cluster_workers", "Configured worker nodes.", func() int64 { return int64(reg.Len()) })
	r.GaugeFunc("smaserve_cluster_workers_alive", "Worker nodes currently passing health checks.", func() int64 { return int64(reg.AliveCount()) })
	r.Goroutines("smaserve_goroutines", "Live goroutines in the coordinator process (leak canary for the chaos harness).")
	r.Uptime("smaserve_cluster_uptime_seconds", "Seconds since the coordinator started.")
	return m
}

// New builds the coordinator. Call Start to begin heartbeats and
// Shutdown to drain.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: a coordinator needs at least one worker URL")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{
		cfg:        cfg,
		reg:        NewRegistry(cfg.Workers, nil),
		client:     client,
		retryDelay: cfg.RetryDelay,
		jobSlots:   make(chan struct{}, cfg.MaxJobs),
	}
	mcfg := server.MemStoreConfig{
		TTL:        cfg.ResultTTL,
		MaxEntries: cfg.MaxStoredResults,
		MaxBytes:   cfg.MaxStoredBytes,
	}
	if cfg.DataDir != "" {
		jl, err := server.OpenJobLog(cfg.DataDir, cfg.Logf)
		if err != nil {
			return nil, err
		}
		// A job evicted or deleted from the store must not resurrect on the
		// next restart.
		mcfg.OnRemove = jl.Delete
		fstore, err := server.NewFileStore(server.FileStoreConfig{
			MemStoreConfig: mcfg,
			Dir:            cfg.DataDir,
			Logf:           cfg.Logf,
		})
		if err != nil {
			jl.Close() //smavet:allow errdiscard -- error-path teardown
			return nil, err
		}
		c.jl, c.fstore, c.store = jl, fstore, fstore
	} else {
		c.store = server.NewMemStore(mcfg)
	}
	c.metrics = newCoordMetrics(c.reg)
	c.jobs = &server.JobPlane{Store: c.store, Log: c.jl, Fields: c.fstore, Jobs: c.metrics.jobs, Logf: cfg.Logf}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleJobCreate)
	mux.HandleFunc("GET /v1/jobs", c.jobs.HandleList)
	mux.HandleFunc("GET /v1/jobs/{id}", c.jobs.HandleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.jobs.HandleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", c.jobs.HandleCancel)
	mux.HandleFunc("POST /v1/track", c.handleTrackProxy)
	mux.HandleFunc("GET /v1/cluster", c.handleCluster)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.metrics.Handler(cfg.Logf))
	c.mux = mux
	return c, nil
}

// Start launches the worker heartbeat loop; the first probe round runs
// before Start returns, so readiness reflects real worker liveness.
func (c *Coordinator) Start(ctx context.Context) {
	c.reg.Start(ctx, c.cfg.HealthInterval)
	c.ready.Store(true)
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Registry exposes the worker registry (the chaos harness reads it).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Shutdown drains: readiness flips immediately, running jobs finish (or
// are cancelled when ctx expires), heartbeats stop, and the store closes.
// With a durable plane attached, jobs the drain cuts short are journaled
// pending — Recover resumes them on the next start instead of losing the
// work the way a plain SIGTERM used to.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	c.ready.Store(false)
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Cancel what is still running; the dispatch loops abort on their
		// cancelled contexts, so the jobs settle (and journal their pending
		// markers) promptly.
		c.store.Range(func(id string, v any) bool {
			if job, ok := v.(*clusterJob); ok {
				job.Cancel()
			}
			return true
		})
		<-done
	}
	c.reg.Stop()
	c.store.Close()
	if c.jl != nil {
		// Closed after the drain so abandoned jobs' pending markers land.
		if cerr := c.jl.Close(); cerr != nil {
			c.cfg.Logf("smaserve: closing cluster journal: %v", cerr)
		}
	}
	return err
}

func (c *Coordinator) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad JSON body: %v", err), c.cfg.Logf)
		return
	}
	if req.Fault != nil {
		// A frame fault at a shard boundary would fire in two shards and
		// break single-plan accounting; cluster chaos is node-level.
		server.WriteError(w, http.StatusBadRequest, "frame-level fault specs are not supported on cluster jobs; use cluster_fault", c.cfg.Logf)
		return
	}
	if req.Synthetic == nil {
		server.WriteError(w, http.StatusBadRequest, "jobs need a synthetic dataset reference", c.cfg.Logf)
		return
	}
	frames := req.Synthetic.Frames
	if frames < 2 {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("need at least 2 frames, got %d", frames), c.cfg.Logf)
		return
	}
	if frames > c.cfg.MaxFrames {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("%d frames exceeds the serving cap %d", frames, c.cfg.MaxFrames), c.cfg.Logf)
		return
	}
	if _, err := req.Synthetic.SceneOf(); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), c.cfg.Logf)
		return
	}
	if px := req.Synthetic.Size * req.Synthetic.Size; px > c.cfg.MaxPixels {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("frame area %d px exceeds the serving cap %d", px, c.cfg.MaxPixels), c.cfg.Logf)
		return
	}
	params, err := c.resolveParams(req.Params)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), c.cfg.Logf)
		return
	}
	// Validate the pyramid spec at admission with the same rules the
	// workers apply at execution, so a bad spec is rejected up front
	// instead of failing every shard dispatch as a permanent 4xx.
	if _, err := req.Pyramid.Resolve(params); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), c.cfg.Logf)
		return
	}
	plan := req.ClusterFault.Plan()
	if plan != nil {
		if err := plan.Validate(c.reg.Len()); err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error(), c.cfg.Logf)
			return
		}
	}
	if c.draining.Load() {
		c.rejectSaturated(w)
		return
	}
	select {
	case c.jobSlots <- struct{}{}:
	default:
		c.rejectSaturated(w)
		return
	}
	release := func() { <-c.jobSlots }

	id, err := server.NewID()
	if err != nil {
		release()
		server.WriteError(w, http.StatusInternalServerError, err.Error(), c.cfg.Logf)
		return
	}
	// Like single-node jobs, a cluster job outlives the submitting
	// request; DELETE /v1/jobs/{id} is the cancellation surface.
	jobCtx, jobCancel := context.WithCancel(context.WithoutCancel(r.Context()))
	job := newClusterJob(server.NewJob(id, frames, true, jobCancel))
	if c.jl != nil {
		// The spec must be durable before the job is acknowledged: a crash
		// after the 202 must find the job in the journal. The injected
		// cluster_fault plan is deliberately not journaled — a resumed job
		// re-dispatches under real liveness only (docs/ROBUSTNESS.md).
		if err := c.jl.Spec(id, &req.JobRequest, frames, job.View().Created); err != nil {
			jobCancel()
			release()
			server.WriteError(w, http.StatusInternalServerError, fmt.Sprintf("journaling job spec: %v", err), c.cfg.Logf)
			return
		}
	}
	c.store.Put(id, job)
	c.metrics.jobs.With("created").Inc()
	c.wg.Add(1)
	go c.runJob(jobCtx, job, req, plan, nil, release)
	c.jobs.Accepted(w, job)
}

func (c *Coordinator) rejectSaturated(w http.ResponseWriter) {
	c.metrics.rejected.Inc()
	w.Header().Set("Retry-After", "1")
	server.WriteError(w, http.StatusServiceUnavailable, "coordinator job slots full; retry later", c.cfg.Logf)
}

// handleTrackProxy forwards a synchronous track to the next alive worker
// round-robin: the coordinator serves the whole single-node API surface,
// so clients point at one URL for both request shapes.
func (c *Coordinator) handleTrackProxy(w http.ResponseWriter, r *http.Request) {
	n := c.reg.Len()
	start := int(c.rr.Add(1))
	for i := 0; i < n; i++ {
		node := (start + i) % n
		if !c.reg.Alive(node) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, c.reg.URL(node)+"/v1/track", r.Body)
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, err.Error(), c.cfg.Logf)
			return
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		resp, err := c.client.Do(req)
		if err != nil {
			// The body may be consumed; a retry elsewhere would replay a
			// half-read request, so mark the node and report upstream.
			c.reg.MarkDead(node)
			server.WriteError(w, http.StatusBadGateway, fmt.Sprintf("worker %d unreachable: %v", node, err), c.cfg.Logf)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			c.cfg.Logf("smaserve: track proxy copy: %v", err)
		}
		return
	}
	server.WriteError(w, http.StatusServiceUnavailable, "no alive worker to serve the track", c.cfg.Logf)
}

// ClusterView is GET /v1/cluster: topology and liveness.
type ClusterView struct {
	Workers    []NodeState `json:"workers"`
	Alive      int         `json:"alive"`
	ShardPairs int         `json:"shard_pairs"`
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	view := ClusterView{
		Workers:    c.reg.Snapshot(),
		Alive:      c.reg.AliveCount(),
		ShardPairs: c.cfg.ShardPairs,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(view); err != nil {
		c.cfg.Logf("smaserve: writing cluster view: %v", err)
	}
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz: ready means accepting jobs AND at least one worker alive
// — a coordinator with no live workers can only fail what it admits.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !c.ready.Load() || c.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "draining", c.cfg.Logf)
		return
	}
	if c.reg.AliveCount() == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no alive workers", c.cfg.Logf)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

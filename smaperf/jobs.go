package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"sma/internal/cluster"
	"sma/internal/core"
	"sma/internal/server"
	"sma/internal/stream"
	"sma/internal/synth"
)

// serverRowWorkers is what smaserve resolves RowWorkers 0 to at its
// default pool size (GOMAXPROCS / Workers with Workers = GOMAXPROCS), and
// what the cluster workers are pinned to: each pair runs on one core.
const serverRowWorkers = 1

// jobWorkload is a closed loop of POST /v1/jobs sequences polled to
// completion and read back through GET /v1/jobs/{id}/result. With
// shardPairs 0 it targets a durable single-node smaserve (jobs-luis);
// otherwise a durable cluster coordinator fronting two in-process workers
// (cluster-pyramid).
type jobWorkload struct {
	cfg        config
	wname      string
	scene      string
	frames     int
	p          core.Params
	levels     int // pyramid levels; 0 = exhaustive search
	shardPairs int // 0 = single node
	nClients   int
	pool       int
	seqs       []jobInput
	c          layerCounts
}

// jobInput is one sequence of the pool and its reference result stream.
type jobInput struct {
	ref    server.SyntheticRef
	scene  *synth.Scene
	body   []byte   // POST /v1/jobs body
	fields [][]byte // per-pair SMF1 references
	stream []byte   // the SMP1 stream server.WritePairStream makes of them
}

func newLuisWorkload(cfg config) workload {
	return &jobWorkload{cfg: cfg, wname: "jobs-luis", scene: "hurricane", frames: 5,
		p: core.LuisParams(), nClients: 1, pool: 1}
}

func newPyramidWorkload(cfg config) workload {
	return &jobWorkload{cfg: cfg, wname: "cluster-pyramid", scene: "thunderstorm", frames: 9,
		p: core.GOES9Params(), levels: 3, shardPairs: 2, nClients: 1, pool: 1}
}

func (w *jobWorkload) name() string        { return w.wname }
func (w *jobWorkload) params() core.Params { return w.p }
func (w *jobWorkload) clients() int        { return w.nClients }

// parallelism is one core on a single node; on the cluster each worker
// tracks its shards on a core of its own.
func (w *jobWorkload) parallelism() int {
	if w.shardPairs > 0 {
		return clusterWorkers
	}
	return 1
}
func (w *jobWorkload) counts() *layerCounts { return &w.c }

// handlerStages is empty: a job runs on the worker pool after its
// handler has answered 202.
func (w *jobWorkload) handlerStages() []string { return nil }

func (w *jobWorkload) options() core.Options {
	if w.levels > 1 {
		return core.Options{Pyramid: core.PyramidOptions{Levels: w.levels}}
	}
	return core.Options{}
}

func (w *jobWorkload) render(ctx context.Context) error {
	n := w.cfg.pool
	if n <= 0 {
		n = w.pool
	}
	nss := w.p.NSS
	spec := server.ParamsSpec{NS: w.p.NS, NZS: w.p.NZS, NZT: w.p.NZT, NST: w.p.NST, NSS: &nss}
	var pyr *server.PyramidSpec
	if w.levels > 1 {
		pyr = &server.PyramidSpec{Levels: w.levels}
	}
	w.seqs = make([]jobInput, n)
	for i := range w.seqs {
		s := &w.seqs[i]
		s.ref = server.SyntheticRef{Scene: w.scene, Size: w.cfg.size, Seed: w.cfg.seed*1000 + int64(i), Frames: w.frames}
		scene, err := s.ref.SceneOf()
		if err != nil {
			return err
		}
		s.scene = scene
		req := server.JobRequest{Synthetic: &s.ref, Params: spec, Pyramid: pyr, Retain: true}
		if w.shardPairs > 0 {
			s.body, err = json.Marshal(cluster.JobRequest{JobRequest: req})
		} else {
			s.body, err = json.Marshal(req)
		}
		if err != nil {
			return err
		}
		s.fields = make([][]byte, w.frames-1)
	}
	// The offline references: every pair of every sequence, tracked on its
	// own by the same kernel the job asks for.
	pairs := w.frames - 1
	err := parallel(ctx, n*pairs, func(t int) error {
		s := &w.seqs[t/pairs]
		pair := t % pairs
		pr := core.Monocular(s.scene.Frame(float64(pair)), s.scene.Frame(float64(pair+1)))
		var res *core.Result
		var err error
		if w.levels > 1 {
			var prep *core.Prepared
			if prep, err = core.PreparePyramid(pr, w.p, w.levels); err == nil {
				res, _, err = core.TrackPyramidPreparedCtx(ctx, prep, w.options(), 1)
			}
		} else {
			res, err = core.TrackSequential(pr, w.p, core.Options{})
		}
		if err != nil {
			return fmt.Errorf("reference pair %d: %w", pair, err)
		}
		s.fields[pair], err = encodeField(res)
		return err
	})
	if err != nil {
		return err
	}
	for i := range w.seqs {
		var buf bytes.Buffer
		if err := server.WritePairStream(&buf, w.seqs[i].fields, nil); err != nil {
			return err
		}
		w.seqs[i].stream = buf.Bytes()
	}
	return nil
}

func (w *jobWorkload) setup(ctx context.Context, dataDir string, tr *atomic.Pointer[Tracer]) (*system, error) {
	if w.shardPairs > 0 {
		return w.setupCluster(ctx, dataDir, tr)
	}
	srv, err := server.Open(server.Config{DataDir: dataDir, Logf: quietLog})
	if err != nil {
		return nil, err
	}
	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}
	if _, err := srv.Recover(ctx); err != nil {
		shutdown()
		return nil, err
	}
	ts := httptest.NewServer(&tracedHandler{name: "server.handler", h: srv.Handler(), tr: tr})
	client := newClient()
	return &system{base: ts.URL, client: client, close: func() error {
		client.CloseIdleConnections()
		ts.Close()
		return shutdown()
	}}, nil
}

// setupCluster starts two in-process workers and a durable coordinator,
// and returns once every worker is alive.
func (w *jobWorkload) setupCluster(ctx context.Context, dataDir string, tr *atomic.Pointer[Tracer]) (*system, error) {
	var nodes []*httptest.Server
	var urls []string
	for range clusterWorkers {
		wk := cluster.NewWorker(cluster.WorkerConfig{RowWorkers: serverRowWorkers, Logf: quietLog})
		mux := http.NewServeMux()
		mux.Handle("POST "+cluster.ShardPath, &tracedHandler{name: "cluster.shard", h: wk, tr: tr, key: shardJobID})
		mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ready")
		})
		ts := httptest.NewServer(mux)
		nodes = append(nodes, ts)
		urls = append(urls, ts.URL)
	}
	stopNodes := func() {
		for _, ts := range nodes {
			ts.Close()
		}
	}
	co, err := cluster.New(cluster.Config{Workers: urls, ShardPairs: w.shardPairs, DataDir: dataDir, Logf: quietLog})
	if err != nil {
		stopNodes()
		return nil, err
	}
	hbCtx, hbCancel := context.WithCancel(context.WithoutCancel(ctx))
	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		err := co.Shutdown(sctx)
		hbCancel()
		stopNodes()
		return err
	}
	if _, err := co.Recover(ctx); err != nil {
		// Shutdown joins the heartbeat loop, which only Start launches.
		hbCancel()
		stopNodes()
		return nil, err
	}
	co.Start(hbCtx)
	for co.Registry().AliveCount() < len(urls) {
		if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
			shutdown()
			return nil, fmt.Errorf("waiting for workers: %w", err)
		}
	}
	ts := httptest.NewServer(&tracedHandler{name: "server.handler", h: co.Handler(), tr: tr})
	client := newClient()
	return &system{base: ts.URL, client: client, close: func() error {
		client.CloseIdleConnections()
		ts.Close()
		return shutdown()
	}}, nil
}

// shardJobID reads the job id out of a shard request body and puts the
// body back for the worker.
func shardJobID(r *http.Request) string {
	data, err := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(data))
	if err != nil {
		return ""
	}
	var req cluster.ShardRequest
	if json.Unmarshal(data, &req) != nil {
		return ""
	}
	return req.JobID
}

func (w *jobWorkload) op(ctx context.Context, sys *system, k int, ot opTrace) opOutcome {
	s := &w.seqs[k%len(w.seqs)]
	code, body, retries, err := sys.callRetry(ctx, ot, http.MethodPost, "/v1/jobs", "application/json", s.body)
	o := opOutcome{retries: retries}
	if err != nil {
		o.err = err
		return o
	}
	if code != http.StatusAccepted {
		o.err = httpErr("POST /v1/jobs", code, body)
		return o
	}
	var view cluster.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		o.err = fmt.Errorf("job create response: %w", err)
		return o
	}
	o.jobID = view.ID
	for view.Status != server.JobDone {
		if view.Status == server.JobFailed || view.Status == server.JobCancelled {
			o.err = fmt.Errorf("job %s ended %s: %s", view.ID, view.Status, view.Error)
			return o
		}
		if err := sleepCtx(ctx, pollInterval); err != nil {
			o.err = err
			return o
		}
		code, body, err := sys.call(ctx, ot, "client.http", http.MethodGet, "/v1/jobs/"+view.ID, "", nil)
		if err == nil && code != http.StatusOK {
			err = httpErr("GET /v1/jobs/{id}", code, body)
		}
		if err == nil {
			err = json.Unmarshal(body, &view)
		}
		if err != nil {
			o.err = err
			return o
		}
	}
	if got := view.Stats.PairsTracked; got != int64(w.frames-1) {
		o.err = fmt.Errorf("job %s tracked %d pairs, want %d", view.ID, got, w.frames-1)
		return o
	}
	code, body, err = sys.call(ctx, ot, "store.result_read", http.MethodGet, "/v1/jobs/"+view.ID+"/result", "", nil)
	switch {
	case err != nil:
		o.err = err
	case code != http.StatusOK:
		o.err = httpErr("GET /v1/jobs/{id}/result", code, body)
	case !bytes.Equal(body, s.stream):
		o.mismatch = fmt.Errorf("%w: %s sequence %d: %d result bytes differ from the %d-byte reference", errMismatch, w.wname, k%len(w.seqs), len(body), len(s.stream))
	default:
		o.pairs = w.frames - 1
		o.shards = view.Cluster.Shards
		o.dispatchRetries = view.Cluster.DispatchRetries
	}
	return o
}

// jobStreamConfig is the stream.Config smaserve runs a job with, and the
// cluster worker a shard with.
func (w *jobWorkload) jobStreamConfig() stream.Config {
	return stream.Config{
		Params:       w.p,
		Options:      w.options(),
		Workers:      1,
		RowWorkers:   serverRowWorkers,
		Retry:        stream.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		Skip:         stream.SkipPolicy{MaxSkips: -1},
		Gate:         &core.QualityGate{MaxBadFrac: 0, MaxDeadLineFrac: 1},
		IsolatePairs: true,
	}
}

// direct runs op k's sequence through the layers the job path uses: per
// unit (the whole sequence on a single node, each shard on the cluster)
// a stream run, then encoding and the durable checkpoints in the
// program's order; then the same pairs once more through the core calls
// alone, so prepare and search time can be told apart.
func (w *jobWorkload) direct(ctx context.Context, k int, ot opTrace, sk *sinks) opOutcome {
	s := &w.seqs[k%len(w.seqs)]
	jobID := fmt.Sprintf("direct%010d", k)
	pairs := w.frames - 1
	unit := pairs
	if w.shardPairs > 0 {
		unit = w.shardPairs
	}
	for shard, lo := 0, 0; lo < pairs; shard, lo = shard+1, lo+unit {
		hi := min(lo+unit, pairs)
		if err := w.directUnit(ctx, ot, sk, s, jobID, shard, lo, hi); err != nil {
			if errors.Is(err, errMismatch) {
				return opOutcome{mismatch: err}
			}
			return opOutcome{err: err}
		}
		if err := w.directCore(ctx, ot, s, lo, hi); err != nil {
			return opOutcome{err: err}
		}
	}
	return opOutcome{pairs: pairs}
}

// directUnit streams pairs [lo, hi) and checkpoints them.
func (w *jobWorkload) directUnit(ctx context.Context, ot opTrace, sk *sinks, s *jobInput, jobID string, shard, lo, hi int) error {
	runID := ot.begin("stream.run")
	src := stream.Func(hi-lo+1, func(i int) (core.Frame, error) {
		id := ot.t.Begin("synth.render", ot.op, runID)
		f := core.MonocularFrame(s.scene.Frame(float64(s.ref.T0 + lo + i)))
		ot.t.End(id)
		return f, nil
	})
	results, st, err := stream.RunCtx(ctx, src, w.jobStreamConfig())
	ot.end(runID)
	if err != nil {
		return err
	}
	if len(results) != hi-lo {
		return fmt.Errorf("stream delivered %d of %d pairs", len(results), hi-lo)
	}
	w.c.addFits(st.FitsComputed, st.FitsReused)
	fields := make([][]byte, len(results))
	for i, res := range results {
		if err := ot.timed("server.encode", func() (err error) {
			fields[i], err = encodeField(res)
			return err
		}); err != nil {
			return err
		}
		if !bytes.Equal(fields[i], s.fields[lo+i]) {
			return fmt.Errorf("%w: direct %s pair %d", errMismatch, w.wname, lo+i)
		}
	}
	put := func(i int) error {
		return ot.timed("store.put_field", func() error { return sk.store.PutField(jobID, lo+i, fields[i]) })
	}
	journal := func(i int) {
		ps := server.PairSummary{Pair: lo + i, Status: server.PairOK, MeanMag: results[i].Flow.MeanMagnitude()}
		ot.timed("journal.append", func() error { sk.jlog.Pair(jobID, ps); return nil })
		sk.pairs.Add(1)
	}
	if w.shardPairs == 0 {
		// smaserve: field bytes durable first, then the pair event.
		for i := range fields {
			if err := put(i); err != nil {
				return err
			}
			journal(i)
		}
		return nil
	}
	// Coordinator: every field of the shard, then its pair events, then
	// the shard-done record.
	for i := range fields {
		if err := put(i); err != nil {
			return err
		}
	}
	for i := range fields {
		journal(i)
	}
	ot.timed("journal.append", func() error {
		sk.jlog.ShardDone(jobID, shard, server.ShardCheckpoint{Node: "direct", Lo: lo, Hi: hi, Stats: st})
		return nil
	})
	return nil
}

// directCore fits each frame of [lo, hi] once, as the stream does, and
// searches each pair.
func (w *jobWorkload) directCore(ctx context.Context, ot opTrace, s *jobInput, lo, hi int) error {
	frames := make([]core.Frame, hi-lo+1)
	for i := range frames {
		frames[i] = core.MonocularFrame(s.scene.Frame(float64(s.ref.T0 + lo + i)))
	}
	preps := make([]*core.FramePrep, len(frames))
	for i, f := range frames {
		if err := ot.timed("core.prepare", func() (err error) {
			if w.levels > 1 {
				preps[i], err = core.PrepareFramePyramid(f, w.p, w.levels)
			} else {
				preps[i], err = core.PrepareFrame(f, w.p)
			}
			return err
		}); err != nil {
			return err
		}
	}
	for i := 0; i+1 < len(preps); i++ {
		var prep *core.Prepared
		if err := ot.timed("core.prepare", func() (err error) {
			prep, err = core.AssemblePair(preps[i], preps[i+1])
			return err
		}); err != nil {
			return err
		}
		var sm *core.SemiMap
		if w.p.SemiFluid() {
			ot.timed("core.semimap", func() error { sm = core.BuildSemiMap(prep); return nil })
			w.c.addSemiMap(sm)
		}
		px := int64(prep.W * prep.H)
		var ps *core.PyramidStats
		if err := ot.timed("core.search", func() (err error) {
			if w.levels > 1 {
				_, ps, err = core.TrackPyramidPreparedCtx(ctx, prep, w.options(), serverRowWorkers)
			} else {
				_, err = core.TrackPreparedParallelCtx(ctx, prep, sm, w.options(), serverRowWorkers)
			}
			return err
		}); err != nil {
			return err
		}
		if ps != nil {
			w.c.addSearch(px, ps.Hypotheses, ps.FallbackPixels)
		} else {
			w.c.addSearch(px, px*int64(w.p.Hypotheses()), 0)
		}
	}
	return nil
}

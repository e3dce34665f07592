package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"time"

	"sma/internal/server"
)

// ShardPath is the internal shard-execution endpoint workers mount next
// to the ordinary smaserve routes.
const ShardPath = "/internal/v1/shard"

// WorkerConfig sizes a worker's shard executor. Zero values take the
// documented defaults.
type WorkerConfig struct {
	// Concurrency bounds simultaneous shard executions (0 = 2). Excess
	// shards are rejected 503 + Retry-After, the same backpressure shape
	// as the admission queue.
	Concurrency int
	// RowWorkers stripes each pair's row loop (0 = GOMAXPROCS).
	RowWorkers int
	// MaxPixels caps rendered frame area (0 = 1<<22) and, through it, the
	// semi-fluid map a shard may ask for (server.Limits).
	MaxPixels int
	// Logf receives execution events (nil = log.Printf).
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.RowWorkers <= 0 {
		c.RowWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = server.DefaultMaxPixels
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// A shard execution is bounded in time and length.
const (
	shardTimeout  = 5 * time.Minute
	maxShardPairs = 256
)

// Worker executes shard requests on the local tracking pipeline.
type Worker struct {
	cfg WorkerConfig
	sem chan struct{}
}

// NewWorker builds the shard executor.
func NewWorker(cfg WorkerConfig) *Worker {
	cfg = cfg.withDefaults()
	return &Worker{cfg: cfg, sem: make(chan struct{}, cfg.Concurrency)}
}

// ServeHTTP handles POST /internal/v1/shard: render the shard's frame
// window, run the streaming pipeline over it, and stream SMP1 records
// with global pair indices as pairs complete — chunked transfer, so the
// coordinator overlaps decode with tracking. The trailer carries the
// shard's stream.Stats.
func (wk *Worker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case wk.sem <- struct{}{}:
		defer func() { <-wk.sem }()
	default:
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusServiceUnavailable, "worker shard slots saturated; retry later", wk.cfg.Logf)
		return
	}
	var req ShardRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, server.MaxSpecBytes)).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad shard request: %v", err), wk.cfg.Logf)
		return
	}
	if err := req.Validate(); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), wk.cfg.Logf)
		return
	}
	if n := req.PairHi - req.PairLo; n > maxShardPairs {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("shard spans %d pairs, cap is %d", n, maxShardPairs), wk.cfg.Logf)
		return
	}
	// The coordinator admitted the job under the same rules, so a 400
	// here is permanent and a spec it rejects is never half-honored.
	frames := req.Frames()
	adm, err := server.Admit(server.Spec{
		Synthetic: &req.Synthetic,
		Frames:    frames,
		Params:    req.Params,
		Pyramid:   req.Pyramid,
		Robust:    req.Robust,
	}, server.Limits{MaxPixels: wk.cfg.MaxPixels})
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), wk.cfg.Logf)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), shardTimeout)
	defer cancel()

	// The shard's frame window: global frames PairLo..PairHi inclusive,
	// rendered lazily exactly like the single-node job source so the
	// pixels — and therefore the tracked fields — are bit-identical.
	src := adm.Source(req.Synthetic.T0+req.PairLo, frames)

	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	pw := server.NewPairStreamWriter(w)
	st, err := server.StreamJob(ctx, src, adm, wk.cfg.RowWorkers, req.PairLo, true, func(ps server.PairSummary, smf []byte) error {
		if ps.Status != server.PairOK {
			return pw.WriteDropped(ps.Pair, ps.Status, ps.Error)
		}
		if err := pw.WriteOK(ps.Pair, smf); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// Headers are sent; cut the stream without the sentinel so the
		// coordinator sees a truncation (transient) rather than a silently
		// short result.
		wk.cfg.Logf("smaserve: shard %s/%d aborted: %v", req.JobID, req.Shard, err)
		return
	}
	trailer, err := json.Marshal(st)
	if err != nil {
		wk.cfg.Logf("smaserve: shard %s/%d stats trailer: %v", req.JobID, req.Shard, err)
		return
	}
	if err := pw.WriteEnd(trailer); err != nil {
		wk.cfg.Logf("smaserve: shard %s/%d sentinel: %v", req.JobID, req.Shard, err)
	}
}

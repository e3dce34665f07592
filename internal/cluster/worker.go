package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"time"

	"sma/internal/core"
	"sma/internal/server"
	"sma/internal/stream"
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
	// ShardTimeout bounds one shard execution (0 = 5 min).
	ShardTimeout time.Duration
	// MaxPixels caps rendered frame area (0 = 1<<22).
	MaxPixels int
	// MaxShardPairs caps one shard's pair count (0 = 256).
	MaxShardPairs int
	// DefaultParams seeds parameter resolution (zero = core.ScaledParams).
	DefaultParams core.Params
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
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 5 * time.Minute
	}
	if c.MaxPixels <= 0 {
		c.MaxPixels = 1 << 22
	}
	if c.MaxShardPairs <= 0 {
		c.MaxShardPairs = 256
	}
	if (c.DefaultParams == core.Params{}) {
		c.DefaultParams = core.ScaledParams()
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

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
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad shard request: %v", err), wk.cfg.Logf)
		return
	}
	if err := req.Validate(); err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), wk.cfg.Logf)
		return
	}
	if n := req.PairHi - req.PairLo; n > wk.cfg.MaxShardPairs {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("shard spans %d pairs, cap is %d", n, wk.cfg.MaxShardPairs), wk.cfg.Logf)
		return
	}
	scene, err := req.Synthetic.SceneOf()
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), wk.cfg.Logf)
		return
	}
	if px := req.Synthetic.Size * req.Synthetic.Size; px > wk.cfg.MaxPixels {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("frame area %d px exceeds the worker cap %d", px, wk.cfg.MaxPixels), wk.cfg.Logf)
		return
	}
	params, err := req.Params.Resolve(wk.cfg.DefaultParams)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), wk.cfg.Logf)
		return
	}
	// Resolve the forwarded pyramid spec under the same rules the
	// coordinator accepted it with; a 400 here is permanent, so a spec
	// the coordinator rejects is never half-honored by a worker.
	pyr, err := req.Pyramid.Resolve(params)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error(), wk.cfg.Logf)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), wk.cfg.ShardTimeout)
	defer cancel()

	// The shard's frame window: global frames PairLo..PairHi inclusive,
	// rendered lazily exactly like the single-node job source so the
	// pixels — and therefore the tracked fields — are bit-identical.
	frames := req.Frames()
	src := stream.Func(frames, func(i int) (core.Frame, error) {
		return core.MonocularFrame(scene.Frame(float64(req.Synthetic.T0 + req.PairLo + i))), nil
	})

	w.Header().Set("Content-Type", "application/octet-stream")
	flusher, _ := w.(http.Flusher)
	pw := server.NewPairStreamWriter(w)
	var streamErr error
	st, runErr := stream.StreamCtx(ctx, src, stream.Config{
		Params:     params,
		Options:    core.Options{Robust: req.Robust, Pyramid: pyr},
		Workers:    1, // the shard slot is the unit of concurrency
		RowWorkers: wk.cfg.RowWorkers,
		// Mirror the single-node job pipeline's degraded-mode posture so a
		// shard degrades exactly like the same pairs would have in-process.
		Retry:        stream.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond},
		Skip:         stream.SkipPolicy{MaxSkips: -1},
		Gate:         &core.QualityGate{MaxBadFrac: 0, MaxDeadLineFrac: 1},
		IsolatePairs: true,
		OnPairDrop: func(pair int, cause error) {
			if streamErr != nil {
				return
			}
			status := server.PairFailed
			var fe *stream.FrameError
			if errors.As(cause, &fe) {
				status = server.PairSkipped
			}
			streamErr = pw.WriteDropped(req.PairLo+pair, status, cause.Error())
		},
	}, func(pair int, res *core.Result) error {
		if streamErr != nil {
			return streamErr
		}
		var buf bytes.Buffer
		if err := server.NewMotionField("", res).WriteBinary(&buf); err != nil {
			return err
		}
		if streamErr = pw.WriteOK(req.PairLo+pair, buf.Bytes()); streamErr != nil {
			return streamErr
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if runErr != nil || streamErr != nil {
		// Headers are sent; cut the stream without the sentinel so the
		// coordinator sees a truncation (transient) rather than a silently
		// short result.
		wk.cfg.Logf("smaserve: shard %s/%d aborted: run=%v stream=%v", req.JobID, req.Shard, runErr, streamErr)
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

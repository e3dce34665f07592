package eval

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"sma/internal/server"
)

// ServeThroughput is one trajectory point of the HTTP serving layer: an
// in-process smaserve instance driven by the load generator at a fixed
// concurrency, with every response verified bit-identical to the offline
// sequential tracker. This is the BENCH_serve.json format CI archives.
type ServeThroughput struct {
	Name         string  `json:"name"`
	Size         int     `json:"size"`
	Requests     int     `json:"requests"`
	Concurrency  int     `json:"concurrency"`
	Workers      int     `json:"workers"`
	Errors       int     `json:"errors"`
	Retries      int     `json:"retries"`  // backpressure responses retried after Retry-After
	Rejected     int     `json:"rejected"` // requests given up on while still pushed back
	Mismatches   int     `json:"mismatches"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	ReqPerSec    float64 `json:"requests_per_sec"`
	P50Ms        float64 `json:"p50_ms"`
	P90Ms        float64 `json:"p90_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	BitIdentical bool    `json:"bit_identical"`
}

// ServeThroughputExperiment stands up a server on a loopback listener,
// drives it with the load generator, and reports the latency
// distribution. It errors if any request fails or any motion field is not
// bit-identical to a local sequential track of the same uploaded bytes.
// The load run is bounded by ctx (and a 10-minute safety cap).
func ServeThroughputExperiment(ctx context.Context, size, requests, concurrency, workers int, seed int64) (ServeThroughput, error) {
	out := ServeThroughput{Name: "serve_throughput", Size: size, Requests: requests, Concurrency: concurrency}
	srv := server.New(server.Config{Workers: workers})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		// Teardown must drain even when the driving ctx is already
		// cancelled, so only the timeout binds here.
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		defer cancel()
		srv.Shutdown(sctx) //smavet:allow errdiscard -- teardown of a drained test server
	}()

	ctx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	res, err := server.RunLoad(ctx, server.LoadOptions{
		URL:         ts.URL,
		Requests:    requests,
		Concurrency: concurrency,
		Size:        size,
		Seed:        seed,
		Verify:      true,
	})
	if err != nil {
		return out, err
	}
	out.Concurrency = res.Concurrency
	out.Requests = res.Requests
	out.Workers = workers
	out.Errors = res.Errors
	out.Retries = res.Retries
	out.Rejected = res.Rejected
	out.Mismatches = res.Mismatches
	out.ElapsedSec = res.ElapsedSec
	out.ReqPerSec = res.Throughput
	out.P50Ms = res.P50Ms
	out.P90Ms = res.P90Ms
	out.P99Ms = res.P99Ms
	out.MaxMs = res.MaxMs
	out.BitIdentical = res.Mismatches == 0
	if res.Errors > 0 {
		return out, fmt.Errorf("eval: %d/%d serve requests errored: %v", res.Errors, requests, res.ErrorSample)
	}
	if res.Mismatches > 0 {
		return out, fmt.Errorf("eval: %d served motion fields differ from the sequential tracker", res.Mismatches)
	}
	return out, nil
}

package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
)

// LoadOptions configures RunLoad, the load generator behind cmd/smaload
// and the eval serving experiment.
type LoadOptions struct {
	// URL is the server base, e.g. http://127.0.0.1:8080.
	URL string
	// Nodes, when non-empty, fans requests over multiple server base URLs
	// round-robin by request index (multi-node mode: workers of a cluster,
	// or a coordinator fronting them). URL is ignored when set, and the
	// result carries per-node latency and retry/rejection splits.
	Nodes []string
	// Requests is the total request count (default 32).
	Requests int
	// Concurrency is how many clients issue requests at once (default 8).
	Concurrency int
	// Scene/Size/Seed pick the synthetic frame pair uploaded each request
	// (defaults: hurricane, 64, seed 7).
	Scene string
	Size  int
	Seed  int64
	// Params/Robust configure the tracker (zero Params = server defaults).
	Params ParamsSpec
	Robust bool
	// Binary requests the binary motion-field framing instead of JSON.
	Binary bool
	// Verify tracks the same pair locally and requires every response to
	// be bit-identical (forces the binary framing for the comparison).
	Verify bool
	// Client overrides the HTTP client (default: timeout 2×60s).
	Client *http.Client
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Requests <= 0 {
		o.Requests = 32
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Scene == "" {
		o.Scene = "hurricane"
	}
	if o.Size <= 0 {
		o.Size = 64
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	return o
}

// LoadResult summarizes one load run: error counts and the latency
// distribution cmd/smaload prints and BENCH_serve.json records.
type LoadResult struct {
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	Errors      int `json:"errors"`
	// Retries counts 429/503 backpressure responses that were retried
	// after Retry-After and eventually produced a terminal outcome;
	// Rejected counts requests given up on while still being pushed back
	// (context expired mid-retry). Earlier versions folded both into
	// "rejected", which under-reported throughput: a retried request that
	// ultimately succeeded was also counted as a rejection.
	Retries     int           `json:"retries"`
	Rejected    int           `json:"rejected"`
	Mismatches  int           `json:"mismatches"`
	Elapsed     time.Duration `json:"-"`
	ElapsedSec  float64       `json:"elapsed_sec"`
	Throughput  float64       `json:"requests_per_sec"`
	P50         time.Duration `json:"-"`
	P90         time.Duration `json:"-"`
	P99         time.Duration `json:"-"`
	MaxLatency  time.Duration `json:"-"`
	P50Ms       float64       `json:"p50_ms"`
	P90Ms       float64       `json:"p90_ms"`
	P99Ms       float64       `json:"p99_ms"`
	MaxMs       float64       `json:"max_ms"`
	ErrorSample []string      `json:"error_sample,omitempty"`
	// PerNode splits the run by target node in multi-node mode (one entry
	// per LoadOptions.Nodes URL, same order).
	PerNode []NodeLoad `json:"per_node,omitempty"`
}

// NodeLoad is one node's slice of a multi-node load run.
type NodeLoad struct {
	URL        string  `json:"url"`
	Requests   int     `json:"requests"`
	Completed  int     `json:"completed"`
	Errors     int     `json:"errors"`
	Retries    int     `json:"retries"`
	Rejected   int     `json:"rejected"`
	Throughput float64 `json:"requests_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P90Ms      float64 `json:"p90_ms"`
	P99Ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
}

// BuildTrackRequest renders the synthetic pair as PGM uploads and returns
// the multipart body plus its content type, ready for POST /v1/track.
func BuildTrackRequest(opt LoadOptions) (body []byte, contentType string, pair core.Pair, err error) {
	ref := SyntheticRef{Scene: opt.Scene, Size: opt.Size, Seed: opt.Seed}
	scene, err := ref.SceneOf()
	if err != nil {
		return nil, "", core.Pair{}, err
	}
	f0, f1 := scene.Frame(0), scene.Frame(1)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		field string
		img   *grid.Grid
	}{{"i0", f0}, {"i1", f1}} {
		w, err := mw.CreateFormFile(part.field, part.field+".pgm")
		if err != nil {
			return nil, "", core.Pair{}, err
		}
		if err := part.img.WritePGM(w); err != nil {
			return nil, "", core.Pair{}, err
		}
	}
	fields := map[string]string{"robust": strconv.FormatBool(opt.Robust)}
	if opt.Binary || opt.Verify {
		fields["format"] = "binary"
	}
	if opt.Params.NS > 0 {
		fields["ns"] = strconv.Itoa(opt.Params.NS)
	}
	if opt.Params.NZS > 0 {
		fields["nzs"] = strconv.Itoa(opt.Params.NZS)
	}
	if opt.Params.NZT > 0 {
		fields["nzt"] = strconv.Itoa(opt.Params.NZT)
	}
	if opt.Params.NST > 0 {
		fields["nst"] = strconv.Itoa(opt.Params.NST)
	}
	if opt.Params.NSS != nil {
		fields["nss"] = strconv.Itoa(*opt.Params.NSS)
	}
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if err := mw.WriteField(k, fields[k]); err != nil {
			return nil, "", core.Pair{}, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", core.Pair{}, err
	}

	// The server sees 8-bit PGM quantization, not the float frames, so the
	// bit-identity reference must round-trip through the same encoding.
	rt := func(g *grid.Grid) (*grid.Grid, error) {
		var b bytes.Buffer
		if err := g.WritePGM(&b); err != nil {
			return nil, err
		}
		return grid.ReadPGM(&b)
	}
	q0, err := rt(f0)
	if err != nil {
		return nil, "", core.Pair{}, err
	}
	q1, err := rt(f1)
	if err != nil {
		return nil, "", core.Pair{}, err
	}
	return buf.Bytes(), mw.FormDataContentType(), core.Monocular(q0, q1), nil
}

// RunLoad fires opt.Requests POST /v1/track requests at opt.Concurrency
// and reports the latency distribution, error counts and (with Verify)
// bit-identity mismatches against a local sequential track of the same
// uploaded bytes.
func RunLoad(ctx context.Context, opt LoadOptions) (LoadResult, error) {
	opt = opt.withDefaults()
	body, contentType, pair, err := BuildTrackRequest(opt)
	if err != nil {
		return LoadResult{}, err
	}

	var want *core.Result
	if opt.Verify {
		spec := Spec{Width: pair.I0.W, Height: pair.I0.H, Frames: 2, Params: opt.Params, Robust: opt.Robust}
		adm, err := Admit(spec, Limits{MaxPixels: DefaultMaxPixels})
		if err != nil {
			return LoadResult{}, err
		}
		want, err = core.TrackSequential(pair, adm.Params, adm.Options)
		if err != nil {
			return LoadResult{}, fmt.Errorf("local reference track: %w", err)
		}
	}

	targets := opt.Nodes
	if len(targets) == 0 {
		targets = []string{opt.URL}
	}
	type nodeStats struct {
		latencies []time.Duration
		requests  int
		errors    int
		retries   int
		rejected  int
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      []string
		retries   int
		rejected  int
		mismatch  int
		perNode   = make([]nodeStats, len(targets))
	)
	record := func(node int, d time.Duration, rej bool, errMsg string, mm bool) {
		mu.Lock()
		defer mu.Unlock()
		perNode[node].requests++
		switch {
		case rej:
			rejected++
			perNode[node].rejected++
		case errMsg != "":
			errs = append(errs, errMsg)
			perNode[node].errors++
		default:
			latencies = append(latencies, d)
			perNode[node].latencies = append(perNode[node].latencies, d)
			if mm {
				mismatch++
			}
		}
	}
	recordRetry := func(node int) {
		mu.Lock()
		retries++
		perNode[node].retries++
		mu.Unlock()
	}

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < opt.Concurrency; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Per-worker jitter source, seeded from the run seed so load
			// runs reproduce while workers still decorrelate.
			rng := rand.New(rand.NewSource(opt.Seed + int64(worker+1)*0x9e3779b9))
			for i := range work {
				node := i % len(targets)
				t0 := time.Now()
				// Backpressure rejections are retried after Retry-After,
				// like a well-behaved client; each retry is counted separately
				// from the request's terminal outcome.
				for {
					req, err := http.NewRequestWithContext(ctx, http.MethodPost, targets[node]+"/v1/track", bytes.NewReader(body))
					if err != nil {
						record(node, 0, false, err.Error(), false)
						break
					}
					req.Header.Set("Content-Type", contentType)
					resp, err := opt.Client.Do(req)
					if err != nil {
						record(node, 0, false, err.Error(), false)
						break
					}
					rej, errMsg, mm := consumeTrackResponse(resp, want)
					if rej {
						select {
						case <-time.After(retryDelay(resp, rng)):
							recordRetry(node)
							continue
						case <-ctx.Done():
							// Gave up while still being pushed back: this
							// request really was rejected.
							record(node, 0, true, "", false)
						}
						break
					}
					record(node, time.Since(t0), false, errMsg, mm)
					break
				}
			}
		}(c)
	}
feed:
	for i := 0; i < opt.Requests; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadResult{
		Requests:    opt.Requests,
		Concurrency: opt.Concurrency,
		Errors:      len(errs),
		Retries:     retries,
		Rejected:    rejected,
		Mismatches:  mismatch,
		Elapsed:     elapsed,
		ElapsedSec:  elapsed.Seconds(),
	}
	if elapsed > 0 {
		res.Throughput = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(errs) > 0 {
		n := len(errs)
		if n > 3 {
			n = 3
		}
		res.ErrorSample = errs[:n]
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		pct := func(p float64) time.Duration {
			idx := int(p * float64(len(latencies)-1))
			return latencies[idx]
		}
		res.P50, res.P90, res.P99 = pct(0.50), pct(0.90), pct(0.99)
		res.MaxLatency = latencies[len(latencies)-1]
		res.P50Ms = float64(res.P50) / float64(time.Millisecond)
		res.P90Ms = float64(res.P90) / float64(time.Millisecond)
		res.P99Ms = float64(res.P99) / float64(time.Millisecond)
		res.MaxMs = float64(res.MaxLatency) / float64(time.Millisecond)
	}
	if len(opt.Nodes) > 0 {
		for i, ns := range perNode {
			nl := NodeLoad{
				URL:       targets[i],
				Requests:  ns.requests,
				Completed: len(ns.latencies),
				Errors:    ns.errors,
				Retries:   ns.retries,
				Rejected:  ns.rejected,
			}
			if elapsed > 0 {
				nl.Throughput = float64(len(ns.latencies)) / elapsed.Seconds()
			}
			if len(ns.latencies) > 0 {
				sort.Slice(ns.latencies, func(a, b int) bool { return ns.latencies[a] < ns.latencies[b] })
				npct := func(p float64) float64 {
					idx := int(p * float64(len(ns.latencies)-1))
					return float64(ns.latencies[idx]) / float64(time.Millisecond)
				}
				nl.P50Ms, nl.P90Ms, nl.P99Ms = npct(0.50), npct(0.90), npct(0.99)
				nl.MaxMs = float64(ns.latencies[len(ns.latencies)-1]) / float64(time.Millisecond)
			}
			res.PerNode = append(res.PerNode, nl)
		}
	}
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// retryDelay honors Retry-After when present (capped at 2s so saturated
// runs keep moving), defaulting to 100ms. The returned delay is jittered
// over its upper half so the load generator's concurrent workers do not
// re-dogpile the admission queue in lockstep after a mass rejection.
func retryDelay(resp *http.Response, rng *rand.Rand) time.Duration {
	d := 100 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec >= 0 {
			d = time.Duration(sec) * time.Second
			if d > 2*time.Second {
				d = 2 * time.Second
			}
		}
	}
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// consumeTrackResponse drains one /v1/track response, classifying it as a
// backpressure rejection, an error, or a success (optionally verified
// bit-identical against want).
func consumeTrackResponse(resp *http.Response, want *core.Result) (rejected bool, errMsg string, mismatch bool) {
	defer func() {
		io.Copy(io.Discard, resp.Body) //smavet:allow errdiscard -- best-effort connection reuse drain
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return true, "", false
	case resp.StatusCode != http.StatusOK:
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //smavet:allow errdiscard -- error-path diagnostics only
		return false, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b)), false
	}
	if want == nil {
		return false, "", false
	}
	field, err := ReadBinaryMotionField(resp.Body)
	if err != nil {
		return false, fmt.Sprintf("decoding motion field: %v", err), false
	}
	flow, eps, err := field.Flow()
	if err != nil {
		return false, err.Error(), false
	}
	if !flow.Equal(want.Flow) || !eps.Equal(want.Err) {
		return false, "", true
	}
	return false, "", false
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sma/internal/core"
	"sma/internal/server"
)

// workload is one named traffic mix.
type workload interface {
	name() string
	// params is the tracker configuration every op uses.
	params() core.Params
	// clients is the closed loop's client count.
	clients() int
	// parallelism is how many cores one op keeps busy; the calibration
	// kernel runs on as many at once.
	parallelism() int
	// render builds the inputs and their references from the seed.
	render(ctx context.Context) error
	// setup starts the program's servers in dataDir; their handlers record
	// spans into whatever tracer is installed.
	setup(ctx context.Context, dataDir string, tr *atomic.Pointer[Tracer]) (*system, error)
	// op sends op k over HTTP and verifies every response byte.
	op(ctx context.Context, sys *system, k int, ot opTrace) opOutcome
	// direct runs op k's work through the program's public calls, one
	// span per layer, and verifies the outputs.
	direct(ctx context.Context, k int, ot opTrace, s *sinks) opOutcome
	// counts returns the exact per-layer counters the direct phase
	// accumulated.
	counts() *layerCounts
	// handlerStages names the direct-call spans whose work runs inside
	// the HTTP handler, for server.overhead_ms.
	handlerStages() []string
}

// workloads maps names to constructors.
var workloads = map[string]func(cfg config) workload{
	"track-semifluid": newTrackWorkload,
	"jobs-luis":       newLuisWorkload,
	"cluster-pyramid": newPyramidWorkload,
}

func newWorkload(cfg config) (workload, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	return mk(cfg), nil
}

// opTrace places an op's spans: a nil tracer records nothing.
type opTrace struct {
	t    *Tracer
	op   int64
	span int64 // parent of the spans the op opens
}

func (ot opTrace) begin(name string) int64 { return ot.t.Begin(name, ot.op, ot.span) }

func (ot opTrace) end(id int64) { ot.t.End(id) }

// timed runs f inside a span named name.
func (ot opTrace) timed(name string, f func() error) error {
	id := ot.begin(name)
	err := f()
	ot.end(id)
	return err
}

// opOutcome is what one op did.
type opOutcome struct {
	pairs           int
	retries         int
	jobID           string
	shards          int
	dispatchRetries int64
	err             error // the op failed: counted, not fatal
	mismatch        error // the op returned wrong bytes: fatal
}

// system is a running program under test.
type system struct {
	base   string
	client *http.Client
	close  func() error
}

// newClient returns a loopback client that keeps an idle connection for
// every benchmark client, so ops do not pay for new connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

const (
	// maxRetries bounds 429/503 retries before an op is given up.
	maxRetries = 200
	retryDelay = 20 * time.Millisecond
	// pollInterval paces job status polls.
	pollInterval = 20 * time.Millisecond
)

// call sends one request, reads the whole response, and records a client
// span named name whose id the server-side handler span takes as parent.
func (s *system) call(ctx context.Context, ot opTrace, name, method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	id := ot.begin(name)
	defer ot.end(id)
	if ot.t != nil {
		req.Header.Set(hdrOp, strconv.FormatInt(ot.op, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// callRetry is call that retries admission rejections (429 and 503) after
// a short pause, up to maxRetries times.
func (s *system) callRetry(ctx context.Context, ot opTrace, method, path, ctype string, body []byte) (code int, data []byte, retries int, err error) {
	for {
		code, data, err = s.call(ctx, ot, "client.http", method, path, ctype, body)
		if err != nil || (code != http.StatusTooManyRequests && code != http.StatusServiceUnavailable) || retries >= maxRetries {
			return code, data, retries, err
		}
		retries++
		if err := sleepCtx(ctx, retryDelay); err != nil {
			return code, data, retries, err
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func quietLog(string, ...any) {}

// httpErr describes an unexpected status.
func httpErr(what string, code int, body []byte) error {
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Errorf("%s: HTTP %d: %s", what, code, bytes.TrimSpace(body))
}

// sinks are the durable stores the direct phase writes through: the same
// journal and field store types the program uses, in a directory of the
// benchmark's own.
type sinks struct {
	dir   string
	jlog  *server.JobLog
	store *server.FileStore
	pairs atomic.Int64 // pairs journaled
}

func openSinks(dir string) (*sinks, error) {
	jl, err := server.OpenJobLog(dir, quietLog)
	if err != nil {
		return nil, err
	}
	fs, err := server.NewFileStore(server.FileStoreConfig{Dir: dir, Logf: quietLog})
	if err != nil {
		jl.Close()
		return nil, err
	}
	return &sinks{dir: dir, jlog: jl, store: fs}, nil
}

// close flushes the journal and returns how many record bytes it holds
// (segment headers excluded).
func (s *sinks) close() (int64, error) {
	s.store.Close()
	if err := s.jlog.Close(); err != nil {
		return 0, err
	}
	var total int64
	err := filepath.Walk(filepath.Join(s.dir, "journal"), func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		total += fi.Size() - 8
		return nil
	})
	return total, err
}

// layerCounts accumulates the exact per-layer counters of the direct
// phase. They are integers, so their ratios do not depend on how many ops
// a run managed.
type layerCounts struct {
	mu             sync.Mutex
	pairs          int64 // pairs searched
	pixels         int64
	hyps           int64 // hypotheses evaluated
	fallbackPixels int64
	semimapBytes   int64
	fitsComputed   int64
	fitsReused     int64
}

func (c *layerCounts) addSearch(pixels, hyps, fallbackPixels int64) {
	c.mu.Lock()
	c.pairs++
	c.pixels += pixels
	c.hyps += hyps
	c.fallbackPixels += fallbackPixels
	c.mu.Unlock()
}

func (c *layerCounts) addSemiMap(sm *core.SemiMap) {
	if sm == nil {
		return
	}
	c.mu.Lock()
	c.semimapBytes += int64(len(sm.DX) + len(sm.DY))
	c.mu.Unlock()
}

func (c *layerCounts) addFits(computed, reused int64) {
	c.mu.Lock()
	c.fitsComputed += computed
	c.fitsReused += reused
	c.mu.Unlock()
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and returns the first
// error.
func parallel(ctx context.Context, n int, fn func(i int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for range max(1, min(n, runtime.GOMAXPROCS(0))) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// encodeField renders a result as the SMF1 bytes the server sends.
func encodeField(res *core.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := server.NewMotionField("", res).WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

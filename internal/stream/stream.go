// Package stream implements the multi-frame tracking pipeline the MP-2
// deployment exists for: pushing an ordered sequence of frames through the
// SMA tracker at sustained throughput rather than single-pair latency.
//
// The pipeline consumes frames from a Source, prepares each frame's
// surface fits exactly once (an LRU cache of core.FramePrep keyed by frame
// index carries frame t's fit from pair (t−1, t) to pair (t, t+1)), and
// drives the per-pair hypothesis search through a bounded-concurrency
// scheduler with backpressure. Motion fields are delivered strictly in
// pair order, and every delivered field is bit-identical to what pairwise
// core.TrackSequential would produce — at every worker count, window and
// cache size. The conformance suite (golden fixtures, the equivalence
// matrix in stream_test.go, FuzzPipelineScheduling) enforces that claim;
// see docs/PIPELINE.md.
//
// Real feeds carry damage — dropped scan lines, truncated files,
// transient I/O errors — so the pipeline also has a degraded mode:
// RetryPolicy re-reads transiently failing frames with backoff,
// SkipPolicy drops persistently bad frames and resynchronizes pairing on
// the next good one, a core.QualityGate rejects damaged pixels before
// they poison surface fits, and IsolatePairs confines per-pair tracking
// failures to their pair. Surviving pairs remain bit-identical to the
// same pairs of an undamaged run; see docs/ROBUSTNESS.md.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sma/internal/core"
)

// DefaultCacheSize is the prepared-frame LRU capacity when Config leaves
// CacheSize zero. Two entries are exactly what in-order pairwise streaming
// needs: the shared frame plus the newly fitted one.
const DefaultCacheSize = 2

// Config controls a streaming run.
type Config struct {
	Params  core.Params
	Options core.Options
	// Workers bounds how many pairs are tracked concurrently
	// (0 = GOMAXPROCS). Results are independent of the worker count.
	Workers int
	// RowWorkers additionally spreads each pair's pixels across
	// goroutines via core.TrackPreparedParallelCtx's work-stealing tile
	// scheduler; 0 or 1 tracks each pair on a single goroutine. Useful
	// when sequences are short and pairs large.
	RowWorkers int
	// CacheSize caps the prepared-frame LRU (0 = DefaultCacheSize; must
	// be >= 1). Any capacity >= 1 suffices for each frame to be fitted
	// exactly once during in-order streaming; larger caches only help
	// hypothetical out-of-order replays.
	CacheSize int
	// Window is the backpressure bound: the capacity of the assembled-pair
	// queue feeding the workers and of the result queue draining them
	// (0 = Workers). At most Window + Workers assembled pairs are in
	// flight ahead of the collector, which bounds peak memory.
	Window int

	// Retry re-reads frames whose Next failed transiently (zero value:
	// one attempt, no retry).
	Retry RetryPolicy
	// Skip drops frames that stay bad after retrying, resynchronizing
	// pairing on the next good frame (zero value: first bad frame aborts
	// the run, the historical behavior).
	Skip SkipPolicy
	// Gate rejects damaged frames (NaN/Inf pixels, dead scanlines) before
	// preparation; rejections follow the Skip policy. nil disables the
	// check.
	Gate *core.QualityGate
	// IsolatePairs confines a per-pair tracking failure to its pair: the
	// pair is reported through OnPairDrop and Stats.PairsFailed and the
	// rest of the run continues. false (the default) aborts the run, the
	// historical behavior. Cancellation always aborts regardless.
	IsolatePairs bool
	// OnPairDrop is told about every pair the degraded mode dropped —
	// skipped (a constituent frame was bad) or failed (tracking errored
	// under IsolatePairs). It is called on the collector goroutine (the
	// StreamCtx caller's), in pair order, interleaved correctly with
	// emit. The cause of a skipped pair unwraps to a *FrameError.
	OnPairDrop func(pair int, cause error)
}

// Stats counts the pipeline's per-stage work. FitsComputed/FitsReused
// make the caching observable: N in-order frames cost exactly N fits,
// and the 2(N−1) per-pair lookups hit the cache 2(N−1)−N times. The
// degraded-mode counters (Retries, FramesSkipped, PairsSkipped,
// PairsFailed, Gaps) stay zero on clean runs and make damage observable
// on dirty ones: dropping k isolated frames of N skips exactly 2k pairs
// and records k gaps.
type Stats struct {
	FramesIn      int64 // frames consumed from the source
	FitsComputed  int64 // core.PrepareFrame executions (cache misses)
	FitsReused    int64 // cache hits
	Evictions     int64 // prepared frames dropped by the LRU
	PairsTracked  int64 // motion fields delivered in order
	Retries       int64 // frame re-reads after transient errors
	FramesSkipped int64 // frames dropped by the skip policy or gate
	PairsSkipped  int64 // pairs lost because a constituent frame was dropped
	PairsFailed   int64 // pairs dropped by per-pair tracking failures
	Gaps          int64 // maximal runs of consecutive skipped frames
}

// Add folds o's counters into s: the totals of a run made of parts, such
// as a resumed prefix and its remainder, or a job's shards.
func (s *Stats) Add(o Stats) {
	s.FramesIn += o.FramesIn
	s.FitsComputed += o.FitsComputed
	s.FitsReused += o.FitsReused
	s.Evictions += o.Evictions
	s.PairsTracked += o.PairsTracked
	s.Retries += o.Retries
	s.FramesSkipped += o.FramesSkipped
	s.PairsSkipped += o.PairsSkipped
	s.PairsFailed += o.PairsFailed
	s.Gaps += o.Gaps
}

// Source yields the frames of an ordered image sequence. Next returns
// io.EOF after the final frame. Next must not advance past a frame it
// failed to deliver: calling it again retries the same frame (the
// contract RetryPolicy builds on). Sources that can also step past a
// persistently bad frame implement Skipper, which SkipPolicy requires
// for source-level failures.
type Source interface {
	Next() (core.Frame, error)
}

// pairJob is one unit handed to the workers: either an assembled pair to
// track, or (drop != nil) a marker for a pair the producer dropped,
// forwarded through the ordinary channels so the collector sees every
// pair index exactly once, in order.
type pairJob struct {
	index int
	prep  *core.Prepared
	drop  error
}

type pairResult struct {
	index  int
	res    *core.Result
	err    error
	failed bool // err came from tracking, not from a dropped frame
}

// Stream drives the pipeline over the whole source, calling emit once per
// adjacent frame pair, in pair order (emit(0, ...) is the motion field of
// frames 0→1). A non-nil error from emit cancels the run and is returned.
// Each delivered Result is bit-identical to core.TrackSequential on the
// corresponding pair. Pairs dropped by the degraded mode are not emitted;
// Config.OnPairDrop observes them.
func Stream(src Source, cfg Config, emit func(pair int, res *core.Result) error) (Stats, error) {
	//smavet:allow ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root for batch callers
	return StreamCtx(context.Background(), src, cfg, emit)
}

// StreamCtx is Stream with cooperative cancellation: when ctx is
// cancelled the producer stops assembling pairs, in-flight trackers abort
// at their next row boundary, no further pairs are emitted, and the call
// returns ctx.Err() promptly with every pipeline goroutine drained. The
// Stats are consistent for the truncated run — PairsTracked counts
// exactly the pairs emitted before cancellation. This is the cancellation
// surface a serving deadline or a client disconnect threads down through.
func StreamCtx(ctx context.Context, src Source, cfg Config, emit func(pair int, res *core.Result) error) (Stats, error) {
	var st Stats
	if ctx == nil {
		ctx = context.Background() //smavet:allow ctxflow -- nil-guard: a nil ctx documents "never cancel", and there is nothing to derive from
	}
	if src == nil {
		return st, fmt.Errorf("stream: nil source")
	}
	if emit == nil {
		return st, fmt.Errorf("stream: nil emit callback")
	}
	if err := cfg.Params.Validate(); err != nil {
		return st, err
	}
	if err := cfg.Options.Pyramid.Check(cfg.Params); err != nil {
		return st, fmt.Errorf("stream: %w", err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cacheSize := cfg.CacheSize
	if cacheSize == 0 {
		cacheSize = DefaultCacheSize
	}
	if cacheSize < 1 {
		return st, fmt.Errorf("stream: cache size %d, need >= 1", cfg.CacheSize)
	}
	window := cfg.Window
	if window == 0 {
		window = workers
	}
	if window < 1 {
		return st, fmt.Errorf("stream: window %d, need >= 1", cfg.Window)
	}

	jobs := make(chan pairJob, window)
	results := make(chan pairResult, window)
	stop := make(chan struct{})
	var stopOnce sync.Once
	cancel := func() { stopOnce.Do(func() { close(stop) }) }

	// Context watcher: translates ctx cancellation into the pipeline's
	// internal stop signal. Exits with the run (cancel() closes stop).
	go func() {
		select {
		case <-ctx.Done():
			cancel()
		case <-stop:
		}
	}()

	// Producer: reads frames in order (retrying and skipping per the
	// degraded-mode policies), prepares each exactly once through the
	// LRU, assembles adjacent pairs and feeds the workers. The jobs
	// channel's capacity is the backpressure bound — when the trackers
	// fall behind, preparation stalls instead of accumulating pairs.
	retry := cfg.Retry.withDefaults()
	pr := &producer{
		src:   src,
		p:     cfg.Params,
		gate:  cfg.Gate,
		retry: retry,
		skip:  cfg.Skip,
		cache: newLRU(cacheSize),
		jobs:  jobs,
		stop:  stop,
		st:    &st,
		rng:   rand.New(rand.NewSource(retry.Seed)),
	}
	prodErr := make(chan error, 1)
	go func() {
		defer close(jobs)
		prodErr <- pr.run()
	}()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if job.drop != nil {
					// A pair the producer dropped: forward the marker so
					// the collector keeps strict pair ordering.
					select {
					case results <- pairResult{index: job.index, err: job.drop}:
					case <-stop:
						return
					}
					continue
				}
				rowWorkers := cfg.RowWorkers
				if rowWorkers < 1 {
					rowWorkers = 1
				}
				// The ctx-aware map build and search abort at row
				// granularity when the run is cancelled; completed pairs
				// are bit-identical to TrackPrepared at every row-worker
				// count.
				sm, err := core.BuildSemiMapCtx(ctx, job.prep, rowWorkers)
				var res *core.Result
				if err == nil {
					res, err = core.TrackPreparedParallelCtx(ctx, job.prep, sm, cfg.Options, rowWorkers)
				}
				if err != nil {
					if cfg.IsolatePairs && ctx.Err() == nil {
						// Per-pair failure isolation: report this pair
						// failed and keep tracking the others.
						select {
						case results <- pairResult{index: job.index, err: err, failed: true}:
							continue
						case <-stop:
						}
					}
					cancel()
					return
				}
				select {
				case results <- pairResult{index: job.index, res: res}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: re-establishes pair order before emitting. The pending
	// map is bounded by the number of in-flight pairs. Dropped pairs are
	// counted and reported here so OnPairDrop interleaves with emit in
	// strict pair order on the caller's goroutine.
	pending := make(map[int]pairResult)
	next := 0
	var emitErr error
	for r := range results {
		if emitErr != nil {
			continue // draining after cancel
		}
		select {
		case <-stop:
			// Cancelled (ctx or emit error elsewhere): keep draining so the
			// workers can exit, but emit no further pairs.
			continue
		default:
		}
		pending[r.index] = r
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			if cur.err != nil {
				if cur.failed {
					st.PairsFailed++
				} else {
					st.PairsSkipped++
				}
				if cfg.OnPairDrop != nil {
					cfg.OnPairDrop(next, cur.err)
				}
				next++
				continue
			}
			if err := emit(next, cur.res); err != nil {
				emitErr = err
				cancel()
				break
			}
			next++
			st.PairsTracked++
		}
	}
	err := <-prodErr
	cancel()
	if emitErr != nil {
		return st, emitErr
	}
	if cerr := ctx.Err(); cerr != nil {
		return st, cerr
	}
	return st, err
}

// errStopped tells the producer loop the pipeline was cancelled while it
// was waiting (e.g. in a retry backoff); the run's error comes from ctx.
var errStopped = errors.New("stream: stopped")

// producer runs in its own goroutine; it is the only writer of the cache
// and of the producer-side counters.
type producer struct {
	src   Source
	p     core.Params
	gate  *core.QualityGate
	retry RetryPolicy
	skip  SkipPolicy
	cache *lru
	jobs  chan<- pairJob
	stop  <-chan struct{}
	st    *Stats
	rng   *rand.Rand
}

func (pr *producer) run() error {
	var prev core.Frame
	prevIdx := -1 // frame index of prev while prev is pairable
	idx := 0      // index of the frame the next Next() addresses
	skipped := 0
	inGap := false
	var lastSkipErr error
	for {
		f, err := pr.nextFrame()
		if err == io.EOF {
			break
		}
		if err == errStopped {
			return nil
		}
		var fe *FrameError
		if err != nil {
			fe = frameError(idx, err)
		} else {
			pr.st.FramesIn++
			if pr.gate != nil {
				if gerr := pr.gate.Check(f); gerr != nil {
					fe = &FrameError{Frame: idx, Err: gerr}
				}
			}
		}
		if fe != nil {
			if !pr.skip.allows(skipped, fe) {
				return fe
			}
			if err != nil {
				// The source never delivered this frame, so it must be
				// stepped past explicitly; a source that cannot skip makes
				// the failure fatal. (Gate rejections consumed the frame.)
				sk, ok := pr.src.(Skipper)
				if !ok {
					return fe
				}
				sk.SkipFrame()
			}
			skipped++
			pr.st.FramesSkipped++
			if !inGap {
				pr.st.Gaps++
				inGap = true
			}
			lastSkipErr = fe
			// Dropping frame idx kills pair idx−1 (frames idx−1, idx).
			// Pair idx (frames idx, idx+1) is reported when frame idx+1
			// is processed — every pair exactly once, at its right end.
			if idx > 0 && !pr.sendDrop(idx-1, fe) {
				return nil
			}
			prevIdx = -1
			idx++
			continue
		}
		inGap = false
		if idx > 0 {
			if prevIdx == idx-1 {
				if err := pr.sendPair(idx-1, prev, f); err != nil {
					if err == errStopped {
						return nil
					}
					return err
				}
			} else if !pr.sendDrop(idx-1, lastSkipErr) {
				// Left endpoint was dropped earlier: pair idx−1 is
				// unpairable; resynchronize on this good frame.
				return nil
			}
		}
		prev, prevIdx = f, idx
		idx++
	}
	if idx < 2 {
		return fmt.Errorf("stream: need at least 2 frames, got %d", idx)
	}
	return nil
}

// nextFrame reads the next frame, retrying transient failures per the
// retry policy with jittered exponential backoff.
func (pr *producer) nextFrame() (core.Frame, error) {
	attempts := 0
	for {
		f, err := pr.src.Next()
		if err == nil || err == io.EOF {
			return f, err
		}
		attempts++
		if attempts >= pr.retry.MaxAttempts || !pr.retry.Transient(err) {
			return core.Frame{}, err
		}
		pr.st.Retries++
		select {
		case <-time.After(pr.retry.backoff(attempts, pr.rng)):
		case <-pr.stop:
			return core.Frame{}, errStopped
		}
	}
}

// sendPair prepares and assembles the pair (i, i+1) = (f0, f1) and feeds
// it to the workers. Returns errStopped if the pipeline shut down.
func (pr *producer) sendPair(pair int, f0, f1 core.Frame) error {
	p0, err := pr.framePrep(pair, f0)
	if err != nil {
		return err
	}
	p1, err := pr.framePrep(pair+1, f1)
	if err != nil {
		return err
	}
	prep, err := core.AssemblePair(p0, p1)
	if err != nil {
		return fmt.Errorf("stream: pair %d→%d: %w", pair, pair+1, err)
	}
	select {
	case pr.jobs <- pairJob{index: pair, prep: prep}:
		return nil
	case <-pr.stop:
		return errStopped
	}
}

// sendDrop forwards a dropped-pair marker to the workers, reporting
// whether the pipeline is still running.
func (pr *producer) sendDrop(pair int, cause error) bool {
	select {
	case pr.jobs <- pairJob{index: pair, drop: cause}:
		return true
	case <-pr.stop:
		return false
	}
}

// framePrep returns frame i's preparation, fitting it only on a cache
// miss. Eviction never loses work already referenced by an in-flight
// pair: the cache holds plain references, so dropped entries stay alive
// until their pairs finish tracking.
func (pr *producer) framePrep(i int, f core.Frame) (*core.FramePrep, error) {
	if fp, ok := pr.cache.get(i); ok {
		pr.st.FitsReused++
		return fp, nil
	}
	fp, err := core.PrepareFrame(f, pr.p)
	if err != nil {
		return nil, frameError(i, err)
	}
	pr.st.FitsComputed++
	pr.st.Evictions += int64(pr.cache.put(i, fp))
	return fp, nil
}

// Run streams the whole source and returns the FramesIn−1 pair results in
// order: Run(...)[i] tracks frames i→i+1. With a SkipPolicy enabled,
// dropped pairs are absent from the returned slice and positional
// correspondence is lost — degraded-mode callers should use Stream with
// OnPairDrop instead.
func Run(src Source, cfg Config) ([]*core.Result, Stats, error) {
	//smavet:allow ctxflow -- non-ctx compatibility wrapper: a deliberate uncancellable root for batch callers
	return RunCtx(context.Background(), src, cfg)
}

// RunCtx is Run with cooperative cancellation (see StreamCtx).
func RunCtx(ctx context.Context, src Source, cfg Config) ([]*core.Result, Stats, error) {
	var out []*core.Result
	st, err := StreamCtx(ctx, src, cfg, func(_ int, res *core.Result) error {
		out = append(out, res)
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}

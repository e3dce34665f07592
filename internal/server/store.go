package server

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/stream"
	"sma/internal/viz"
)

// newID returns a 16-hex-char random identifier for tracks and jobs.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: id generation: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// TrackResult is a stored synchronous tracking outcome, kept so GET
// /v1/track/{id}/svg can render vectors over the imagery they were
// tracked on. It keeps only what that render draws, in the smallest form
// that draws the same bytes: the flow as int16 planes (core flows are
// integer offsets h + δ, and Params.Validate bounds them to ±254) and
// the first input frame as its 16 gray levels (viz.GrayLevels) — not the
// residual plane, which the POST response already carried.
type TrackResult struct {
	ID         string
	W, H       int
	U, V       []int16 // flow components, row-major
	Background []byte  // viz.GrayLevels of the first frame
	Params     core.Params
	Created    time.Time
}

// newTrackResult packs a tracked flow and its background frame into the
// stored form. It fails on a flow component int16 cannot hold exactly.
func newTrackResult(id string, f *grid.VectorField, bg *grid.Grid, p core.Params) (*TrackResult, error) {
	u, err := int16Plane(f.U)
	if err != nil {
		return nil, err
	}
	v, err := int16Plane(f.V)
	if err != nil {
		return nil, err
	}
	w, h := f.Bounds()
	return &TrackResult{ID: id, W: w, H: h, U: u, V: v, Background: viz.GrayLevels(bg), Params: p, Created: time.Now()}, nil
}

// int16Plane converts an integer-valued plane to int16, exactly.
func int16Plane(g *grid.Grid) ([]int16, error) {
	out := make([]int16, len(g.Data))
	for i, x := range g.Data {
		if x < math.MinInt16 || x > math.MaxInt16 || x != float32(int16(x)) {
			return nil, fmt.Errorf("server: flow component %v at %d is not an int16", x, i)
		}
		out[i] = int16(x)
	}
	return out, nil
}

// WriteSVG renders the stored track — the same bytes viz.WriteQuiverSVG
// draws for the tracked flow over the full first frame. opt's Background
// fields are ignored.
func (t *TrackResult) WriteSVG(w io.Writer, opt viz.QuiverOptions) error {
	f := grid.NewVectorField(t.W, t.H)
	for i := range t.U {
		f.U.Data[i], f.V.Data[i] = float32(t.U[i]), float32(t.V[i])
	}
	opt.Background, opt.BackgroundLevels = nil, t.Background
	return viz.WriteQuiverSVG(w, f, opt)
}

// SizeBytes reports the result's resident footprint for the store's byte
// cap: two int16 flow planes plus one gray-level byte per pixel.
func (t *TrackResult) SizeBytes() int64 {
	var n int64 = 256 // struct + map-entry overhead, order of magnitude
	return n + 2*int64(len(t.U)+len(t.V)) + int64(len(t.Background))
}

// JobStatus is a job lifecycle state.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// Per-pair outcome states: a pair is ok (tracked and summarized),
// skipped (a constituent frame was lost or gate-rejected), or failed
// (tracking errored and IsolatePairs confined the loss to this pair).
const (
	PairOK      = "ok"
	PairSkipped = "skipped"
	PairFailed  = "failed"
)

// PairSummary is the per-pair digest a job retains: full motion fields of
// long sequences would pin unbounded memory, so jobs keep the scalar
// summary and per-job stream.Stats instead. Degraded runs report every
// pair — dropped ones carry their status and cause instead of a motion
// summary, so partial results stay interpretable.
type PairSummary struct {
	Pair    int     `json:"pair"`
	Status  string  `json:"status"`
	MeanMag float64 `json:"mean_magnitude_px"`
	Error   string  `json:"error,omitempty"`
}

// Job is one asynchronous multi-frame tracking run executed on the
// streaming pipeline.
type Job struct {
	ID string

	mu       sync.Mutex
	status   JobStatus
	created  time.Time
	started  time.Time
	finished time.Time
	frames   int
	stats    stream.Stats
	pairs    []PairSummary
	errMsg   string
	cancel   context.CancelFunc

	// retain keeps each surviving pair's SMF1-encoded motion field so
	// GET /v1/jobs/{id}/result can stream the merged output — the
	// bit-identity surface the cluster coordinator is compared against.
	// fields is indexed by pair; nil entries are dropped pairs, or pairs
	// marked in onDisk, whose bytes were spilled to the FileStore once
	// durable (durable servers only).
	retain bool
	fields [][]byte
	onDisk []bool

	// Recovery state (zero for ordinary jobs). recovered marks how the
	// durable plane rebuilt this job ("restored" = was terminal,
	// "resumed" = re-run from a checkpoint); pairOffset maps the resumed
	// pipeline's pair indices onto the original sequence; prefix re-adds
	// the checkpointed prefix's counters to the resumed run's stats.
	recovered  string
	pairOffset int
	prefix     stream.Stats
}

// JobView is the JSON-serializable snapshot GET /v1/jobs/{id} returns.
type JobView struct {
	ID         string        `json:"id"`
	Status     JobStatus     `json:"status"`
	Frames     int           `json:"frames"`
	Created    time.Time     `json:"created"`
	Started    *time.Time    `json:"started,omitempty"`
	Finished   *time.Time    `json:"finished,omitempty"`
	ElapsedSec float64       `json:"elapsed_sec,omitempty"`
	Stats      stream.Stats  `json:"stats"`
	Pairs      []PairSummary `json:"pairs,omitempty"`
	Error      string        `json:"error,omitempty"`
	// Recovered is set on jobs the durable plane rebuilt after a restart:
	// "restored" (was finished) or "resumed" (re-run from a checkpoint).
	Recovered string `json:"recovered,omitempty"`
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		Status:    j.status,
		Frames:    j.frames,
		Created:   j.created,
		Stats:     j.stats,
		Pairs:     append([]PairSummary(nil), j.pairs...),
		Error:     j.errMsg,
		Recovered: j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.ElapsedSec = end.Sub(j.started).Seconds()
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Cancel requests cancellation of a queued or running job. It reports
// whether the job was still cancellable.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != JobQueued && j.status != JobRunning {
		return false
	}
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// SizeBytes reports the job's resident footprint for the store's byte
// cap — dominated by the retained per-pair motion fields.
func (j *Job) SizeBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	var n int64 = 512 // struct + summaries overhead
	n += int64(len(j.pairs)) * 64
	for _, f := range j.fields {
		n += int64(len(f))
	}
	return n
}

// spill drops pair's in-memory field once PutField has made it durable;
// the result stream reads it back from the FileStore.
func (j *Job) spill(pair int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if pair < 0 || pair >= len(j.fields) || j.fields[pair] == nil {
		return
	}
	if j.onDisk == nil {
		j.onDisk = make([]bool, len(j.fields))
	}
	j.fields[pair] = nil
	j.onDisk[pair] = true
}

// Sizer lets stored values report their resident size so the store's
// byte cap can account for them. Values without it are charged a small
// flat overhead.
type Sizer interface {
	SizeBytes() int64
}

// ResultStore is the pluggable retention layer behind tracks and jobs:
// put/get/delete by id with bounded lifetime and bounded footprint. The
// default is the in-memory MemStore; alternative backends (an external
// cache, a disk spill) satisfy the same contract via Config.Store.
// Implementations must be safe for concurrent use.
type ResultStore interface {
	// Put stores v under id, replacing any previous value.
	Put(id string, v any)
	// Get returns the live value under id, refreshing its recency.
	Get(id string) (any, bool)
	// Delete removes id immediately (DELETE is the cancellation surface;
	// the TTL sweep may race it — both must be safe).
	Delete(id string)
	// Len reports how many live entries the store holds.
	Len() int
	// Range calls fn for each live entry in id order until fn returns
	// false. The iteration runs over a snapshot: fn must not assume the
	// entry is still present, and may call back into the store.
	Range(fn func(id string, v any) bool)
	// Close stops background maintenance.
	Close()
}

// MemStoreConfig sizes the in-memory store. Zero values take the
// documented defaults.
type MemStoreConfig struct {
	// TTL is how long entries stay retrievable (0 = 15 min).
	TTL time.Duration
	// MaxEntries caps the live entry count (0 = 4096). The cap fixes the
	// unbounded-growth hazard of the TTL-only store: with a long TTL and
	// a high job rate, memory grew with traffic history until the sweep
	// caught up. Now Put evicts least-recently-used entries immediately.
	MaxEntries int
	// MaxBytes caps the summed SizeBytes of stored values (0 = 256 MiB).
	// Values that do not implement Sizer are charged a flat overhead.
	MaxBytes int64
	// OnEvict (may be nil) is told how many entries each eviction pass
	// dropped, whatever the reason (expiry, count cap, byte cap).
	OnEvict func(n int)
	// OnRemove (may be nil) is called with the id of every entry that
	// leaves the store — expiry, cap eviction, or Delete — but NOT when a
	// Put replaces an existing value (the id is still live). FileStore
	// hangs disk cleanup off this hook. Called outside the store lock.
	OnRemove func(id string)
}

func (c MemStoreConfig) withDefaults() MemStoreConfig {
	if c.TTL <= 0 {
		c.TTL = 15 * time.Minute
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 4096
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 256 << 20
	}
	return c
}

// memEntry is one stored value plus its expiry, size, and LRU position.
type memEntry struct {
	id      string
	val     any
	expires time.Time
	size    int64
	elem    *list.Element
}

// MemStore is the in-memory ResultStore: a mutex map with TTL expiry
// (periodic sweep plus checks on access) and a count + bytes cap
// enforced in LRU order, so completed results are retrievable for a
// bounded window and memory cannot grow with traffic history or with
// result size.
type MemStore struct {
	mu      sync.Mutex
	m       map[string]*memEntry
	lru     *list.List // front = most recently used
	bytes   int64
	cfg     MemStoreConfig
	stop    chan struct{}
	stopped sync.Once
}

// NewMemStore starts the store and its TTL sweeper.
func NewMemStore(cfg MemStoreConfig) *MemStore {
	cfg = cfg.withDefaults()
	s := &MemStore{
		m:    make(map[string]*memEntry),
		lru:  list.New(),
		cfg:  cfg,
		stop: make(chan struct{}),
	}
	sweep := cfg.TTL / 4
	if sweep < time.Second {
		sweep = time.Second
	}
	go func() {
		t := time.NewTicker(sweep)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sweep(time.Now())
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// sizeOf charges Sizer values their reported size and everything else a
// flat overhead, so heterogeneous stores stay accountable.
func sizeOf(v any) int64 {
	if s, ok := v.(Sizer); ok {
		return s.SizeBytes()
	}
	return 256
}

// sweep drops expired entries, refreshes the cached sizes of live ones
// (jobs grow while running), and re-enforces the caps.
func (s *MemStore) sweep(now time.Time) {
	s.mu.Lock()
	var removed []string
	for _, e := range s.m {
		if now.After(e.expires) {
			s.removeLocked(e)
			removed = append(removed, e.id)
		}
	}
	// Map order leaks into the OnRemove callback sequence otherwise;
	// sorted ids keep eviction side effects (journal deletes, field-dir
	// removal) deterministic run to run.
	sort.Strings(removed)
	// Size refresh: values like running jobs accumulate retained fields
	// after Put, so the byte accounting is re-measured each sweep and the
	// caps re-applied. Between sweeps the byte cap is a backstop, not an
	// instantaneous guarantee.
	for _, e := range s.m {
		sz := sizeOf(e.val)
		s.bytes += sz - e.size
		e.size = sz
	}
	removed = append(removed, s.enforceLocked()...)
	s.mu.Unlock()
	s.notifyRemoved(removed)
}

// notifyRemoved fires the eviction callbacks outside the lock.
func (s *MemStore) notifyRemoved(ids []string) {
	if len(ids) == 0 {
		return
	}
	if cb := s.cfg.OnEvict; cb != nil {
		cb(len(ids))
	}
	if cb := s.cfg.OnRemove; cb != nil {
		for _, id := range ids {
			cb(id)
		}
	}
}

// removeLocked unlinks e from the map, LRU list and byte count.
func (s *MemStore) removeLocked(e *memEntry) {
	delete(s.m, e.id)
	s.lru.Remove(e.elem)
	s.bytes -= e.size
}

// enforceLocked evicts least-recently-used entries until both caps hold,
// returning the ids it dropped.
func (s *MemStore) enforceLocked() []string {
	var removed []string
	for len(s.m) > s.cfg.MaxEntries || s.bytes > s.cfg.MaxBytes {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memEntry)
		s.removeLocked(e)
		removed = append(removed, e.id)
	}
	return removed
}

// Put stores v under id, evicting LRU entries if a cap is exceeded.
func (s *MemStore) Put(id string, v any) {
	size := sizeOf(v)
	s.mu.Lock()
	if old, ok := s.m[id]; ok {
		s.removeLocked(old)
	}
	e := &memEntry{id: id, val: v, expires: time.Now().Add(s.cfg.TTL), size: size}
	e.elem = s.lru.PushFront(e)
	s.m[id] = e
	s.bytes += size
	removed := s.enforceLocked()
	s.mu.Unlock()
	s.notifyRemoved(removed)
}

// Get returns the live value under id and marks it most recently used.
func (s *MemStore) Get(id string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[id]
	if !ok || time.Now().After(e.expires) {
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	return e.val, true
}

// Delete removes id immediately. Safe to race with the TTL sweep and
// with Get: whichever side wins, the entry is gone and the accounting
// stays consistent.
func (s *MemStore) Delete(id string) {
	s.mu.Lock()
	e, ok := s.m[id]
	if ok {
		s.removeLocked(e)
	}
	s.mu.Unlock()
	if ok {
		if cb := s.cfg.OnRemove; cb != nil {
			cb(id)
		}
	}
}

// Range calls fn for each live entry in id order. It snapshots the
// entries under the lock and iterates outside it, so fn may call back
// into the store (and must tolerate entries expiring mid-iteration).
func (s *MemStore) Range(fn func(id string, v any) bool) {
	now := time.Now()
	s.mu.Lock()
	snap := make([]*memEntry, 0, len(s.m))
	for _, e := range s.m {
		if !now.After(e.expires) {
			snap = append(snap, e)
		}
	}
	s.mu.Unlock()
	sort.Slice(snap, func(i, k int) bool { return snap[i].id < snap[k].id })
	for _, e := range snap {
		if !fn(e.id, e.val) {
			return
		}
	}
}

// Len reports the live entry count.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Bytes reports the accounted footprint (refreshed each sweep).
func (s *MemStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Close stops the sweeper.
func (s *MemStore) Close() {
	s.stopped.Do(func() { close(s.stop) })
}

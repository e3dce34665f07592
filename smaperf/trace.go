package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer of the program.
// Spans of one op share Op; Parent is the span that caused this one (0 for
// a root). Key carries an identifier the caller only learns later, such as
// the cluster job a shard request belongs to.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Key    string        `json:"key,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's length; an unfinished span has none.
func (s Span) Dur() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced code paths pay one nil check per span.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name string, op, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// SetKey attaches a late-bound identifier to span id.
func (t *Tracer) SetKey(id int64, key string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Key = key
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's duration minus the part of its interval
// covered by its children. Children may nest or overlap each other (a
// stream run renders frames while it tracks); their clipped intervals are
// merged before subtracting, so a self time is never negative.
func SelfTimes(spans []Span) map[int64]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int64][]iv)
	byID := make(map[int64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 || s.Dur() == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered time.Duration
		var cur iv
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				cur, open = v, true
			case v.lo <= cur.hi:
				cur.hi = max(cur.hi, v.hi)
			default:
				covered += cur.hi - cur.lo
				cur = v
			}
		}
		if open {
			covered += cur.hi - cur.lo
		}
		out[s.ID] = s.Dur() - covered
	}
	return out
}

// unionDur is the length of the union of the spans' intervals.
func unionDur(spans []Span) time.Duration {
	ivs := append([]Span(nil), spans...)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].Start < ivs[b].Start })
	var total, lo, hi time.Duration
	open := false
	for _, s := range ivs {
		if s.Dur() == 0 {
			continue
		}
		switch {
		case !open:
			lo, hi, open = s.Start, s.End, true
		case s.Start <= hi:
			hi = max(hi, s.End)
		default:
			total += hi - lo
			lo, hi = s.Start, s.End
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// Headers that carry a client's op and span ids to the server-side
// handler spans.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// tracedHandler puts a span around a program handler's ServeHTTP while a
// tracer is installed, and passes requests straight through otherwise.
type tracedHandler struct {
	name string
	h    http.Handler
	tr   *atomic.Pointer[Tracer]
	// key, when set, extracts a late-bound identifier from the request
	// (the shard wrapper reads the job id from the body).
	key func(r *http.Request) string
}

func (th *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := th.tr.Load()
	if t == nil {
		th.h.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	id := t.Begin(th.name, op, parent)
	if th.key != nil {
		t.SetKey(id, th.key(r))
	}
	th.h.ServeHTTP(w, r)
	t.End(id)
}

// Package metrics is the Prometheus registry both serving roles
// (smaserve and the cluster coordinator) expose on /metrics, and the
// reader their clients scrape it with. It is standard-library only:
// counter, gauge and histogram families written in the text exposition
// format (version 0.0.4), families in registration order, each
// family's series sorted by label values.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// durationBuckets are the latency histogram bounds in seconds, the usual
// two-orders-of-magnitude Prometheus ladder around tracking latencies
// (milliseconds for small frames, seconds at paper scale).
var durationBuckets = [...]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// Registry is an ordered set of metric families.
type Registry struct {
	mu       sync.Mutex
	families []*family
}

// family is one HELP/TYPE block: its label names and its series, keyed
// by the label values joined with '|'. Scrapes list the series in key
// order. Label values are program constants (routes, codes, statuses)
// and never contain '|'.
type family struct {
	name, help, typ string
	labels          []string
	series          map[string]member
}

// member is one series of a family and its label values.
type member struct {
	values []string
	s      series
}

// series is a *Value, a *Histogram or a scrape-time reader.
type series interface {
	write(b *bytes.Buffer, name, labels string)
}

// add registers a family; an unlabeled one holds the single series s.
func (r *Registry) add(name, help, typ string, labels []string, s series) *family {
	f := &family{name: name, help: help, typ: typ, labels: labels, series: make(map[string]member)}
	if s != nil {
		f.series[""] = member{s: s}
	}
	r.mu.Lock()
	r.families = append(r.families, f)
	r.mu.Unlock()
	return f
}

// Vec is a labeled family whose series are made on first use.
type Vec[S series] struct {
	r  *Registry
	f  *family
	mk func() S
}

// With returns the series for the label values, in label-name order;
// a missing value reads as empty and an extra one is dropped.
func (v Vec[S]) With(values ...string) S {
	vals := make([]string, len(v.f.labels))
	copy(vals, values)
	key := strings.Join(vals, "|")
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	m, ok := v.f.series[key]
	if !ok {
		m = member{vals, v.mk()}
		v.f.series[key] = m
	}
	return m.s.(S)
}

// Value is one counter or gauge series.
type Value struct{ n atomic.Int64 }

// Add moves the value by d (a counter only takes d ≥ 0).
func (v *Value) Add(d int64) { v.n.Add(d) }

// Inc adds one.
func (v *Value) Inc() { v.n.Add(1) }

func (v *Value) write(b *bytes.Buffer, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labels, v.n.Load())
}

// Counter registers an unlabeled counter family.
func (r *Registry) Counter(name, help string) *Value {
	v := &Value{}
	r.add(name, help, "counter", nil, v)
	return v
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) Vec[*Value] {
	return Vec[*Value]{r, r.add(name, help, "counter", labels, nil), func() *Value { return &Value{} }}
}

// Gauge registers an unlabeled gauge family.
func (r *Registry) Gauge(name, help string) *Value {
	v := &Value{}
	r.add(name, help, "gauge", nil, v)
	return v
}

// reader is a gauge whose value text is produced at scrape time.
type reader func() string

func (f reader) write(b *bytes.Buffer, name, labels string) {
	fmt.Fprintf(b, "%s%s %s\n", name, labels, f())
}

// GaugeFunc registers a gauge family read from f at every scrape.
func (r *Registry) GaugeFunc(name, help string, f func() int64) {
	r.add(name, help, "gauge", nil, reader(func() string { return strconv.FormatInt(f(), 10) }))
}

// Goroutines registers a gauge of the process's live goroutines.
func (r *Registry) Goroutines(name, help string) {
	r.GaugeFunc(name, help, func() int64 { return int64(runtime.NumGoroutine()) })
}

// Uptime registers a gauge of the seconds since this call.
func (r *Registry) Uptime(name, help string) {
	start := time.Now()
	r.add(name, help, "gauge", nil, reader(func() string {
		return fmt.Sprintf("%g", time.Since(start).Seconds())
	}))
}

// Histogram is a latency distribution over durationBuckets, cumulative
// on scrape per Prometheus convention.
type Histogram struct {
	mu     sync.Mutex
	counts [len(durationBuckets) + 1]uint64 // one per bucket plus +Inf
	sum    float64
	total  uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := sort.SearchFloat64s(durationBuckets[:], sec)
	h.mu.Lock()
	h.counts[i]++
	h.sum += sec
	h.total++
	h.mu.Unlock()
}

// write expects a non-empty label set: le joins the family's labels.
func (h *Histogram) write(b *bytes.Buffer, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	inner := strings.TrimSuffix(labels, "}") + ","
	var cum uint64
	for i, ub := range durationBuckets {
		cum += h.counts[i]
		fmt.Fprintf(b, "%s_bucket%sle=\"%g\"} %d\n", name, inner, ub, cum)
	}
	cum += h.counts[len(durationBuckets)]
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, inner, cum)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labels, h.sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.total)
}

// HistogramVec registers a histogram family over durationBuckets with
// the given label names (at least one).
func (r *Registry) HistogramVec(name, help string, labels ...string) Vec[*Histogram] {
	return Vec[*Histogram]{r, r.add(name, help, "histogram", labels, nil), func() *Histogram { return &Histogram{} }}
}

// WriteTo renders every family in text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	r.mu.Lock()
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			m := f.series[k]
			m.s.write(&b, f.name, f.labelText(m.values))
		}
	}
	r.mu.Unlock()
	return b.WriteTo(w)
}

// labelText renders a series' label set, `{a="x",b="y"}`, or "" when the
// family has no labels.
func (f *family) labelText(values []string) string {
	if len(f.labels) == 0 {
		return ""
	}
	pairs := make([]string, len(values))
	for i, v := range values {
		pairs[i] = f.labels[i] + "=" + strconv.Quote(v)
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// Handler serves the registry as a scrape; logf reports a failed write.
func (r *Registry) Handler(logf func(format string, args ...any)) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := r.WriteTo(w); err != nil {
			logf("smaserve: metrics scrape: %v", err)
		}
	}
}

package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExposition pins the text format: families in registration order,
// series sorted by their '|'-joined label values ("/a/b|404" before
// "/a|200", while the single-label histogram lists "/a" first),
// cumulative histogram buckets, and unlabeled values. The reader parses
// every series back.
func TestExposition(t *testing.T) {
	r := &Registry{}
	reqs := r.CounterVec("x_requests_total", "Requests.", "route", "code")
	lat := r.HistogramVec("x_seconds", "Latency.", "route")
	n := r.Counter("x_total", "Things.")
	g := r.Gauge("x_inflight", "In flight.")
	r.GaugeFunc("x_depth", "Depth.", func() int64 { return 7 })

	reqs.With("/a", "200").Add(3)
	reqs.With("/a/b", "404").Inc()
	lat.With("/a/b").Observe(2 * time.Second)
	lat.With("/a").Observe(7 * time.Millisecond)
	lat.With("/a").Observe(40 * time.Second)
	n.Add(5)
	g.Add(2)
	g.Add(-1)

	var b bytes.Buffer
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{route="/a/b",code="404"} 1
x_requests_total{route="/a",code="200"} 3
# HELP x_seconds Latency.
# TYPE x_seconds histogram
` + histogram("/a", "0 1 1 1 1 1 1 1 1 1 1 1 2", "40.007", 2) +
		histogram("/a/b", "0 0 0 0 0 0 0 0 1 1 1 1 1", "2", 1) + `# HELP x_total Things.
# TYPE x_total counter
x_total 5
# HELP x_inflight In flight.
# TYPE x_inflight gauge
x_inflight 1
# HELP x_depth Depth.
# TYPE x_depth gauge
x_depth 7
`
	if b.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}

	samples, err := Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2+2*15+3 {
		t.Fatalf("read %d samples", len(samples))
	}
	if s := samples[0]; s.Name != "x_requests_total" || s.Labels["route"] != "/a/b" || s.Labels["code"] != "404" || s.Value != 1 {
		t.Errorf("first sample %+v", s)
	}
	if s := samples[len(samples)-1]; s.Name != "x_depth" || s.Labels != nil || s.Value != 7 {
		t.Errorf("last sample %+v", s)
	}
}

// histogram renders one route's series of x_seconds from its cumulative
// bucket counts.
func histogram(route, cum, sum string, count int) string {
	les := []string{"0.005", "0.01", "0.025", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10", "30", "+Inf"}
	var b strings.Builder
	for i, c := range strings.Fields(cum) {
		b.WriteString(`x_seconds_bucket{route="` + route + `",le="` + les[i] + `"} ` + c + "\n")
	}
	b.WriteString(`x_seconds_sum{route="` + route + `"} ` + sum + "\n")
	b.WriteString(`x_seconds_count{route="` + route + `"} ` + strconv.Itoa(count) + "\n")
	return b.String()
}

func TestReadRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"x_total",
		"x_total{a=\"1\" 2",
		"x_total{a=1} 2",
		"x_total{a=\"1\"}2",
		"x_total one",
	} {
		if _, err := Read(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("Read(%q) accepted a malformed line", line)
		}
	}
}

// TestExpositionConcurrentUse updates one series of every kind from
// several goroutines while scraping; run under -race.
func TestExpositionConcurrentUse(t *testing.T) {
	r := &Registry{}
	reqs := r.CounterVec("c_total", "C.", "k")
	lat := r.HistogramVec("h_seconds", "H.", "k")
	g := r.Gauge("g", "G.")
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				reqs.With("a").Inc()
				lat.With("a").Observe(time.Millisecond)
				g.Add(1)
				if j%100 == 0 {
					if _, err := r.WriteTo(&bytes.Buffer{}); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	var b bytes.Buffer
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		switch s.Name {
		case "c_total", "h_seconds_count", "g":
			if s.Value != workers*each {
				t.Errorf("%s = %v, want %d", s.Name, s.Value, workers*each)
			}
		}
	}
}

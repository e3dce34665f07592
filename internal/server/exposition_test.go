package server

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateExposition = flag.Bool("update", false, "rewrite the /metrics exposition golden under testdata/")

// TestMetricsExposition pins smaserve's whole /metrics text: family
// names, HELP and TYPE lines, label order, histogram buckets and family
// order. Every family is driven through the serving paths that feed it
// (requests on several routes and codes, tracks, three jobs — clean,
// faulted and failed — store evictions, a recovered panic, an admission
// rejection and a queued task), so each scraped value is fixed by the
// traffic. pairs_failed stays 0: no request shape makes a tracker fail
// one pair of a job. Values set by the wall clock are masked: the
// goroutine count, uptime, and the latency histogram's buckets and sum,
// whose _count and cumulative shape are still checked.
func TestMetricsExposition(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 6, MaxStoredResults: 2, Logf: func(string, ...any) {}})

	for _, path := range []string{"/healthz", "/readyz", "/v1/jobs/0000000000000000"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Post(ts.URL+"/v1/track", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed track = %d, want 400", resp.StatusCode)
	}
	for seed := int64(1); seed <= 2; seed++ {
		resp := postTrack(t, ts.URL, LoadOptions{Scene: "shear", Size: 16, Seed: seed})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("track = %d, want 200", resp.StatusCode)
		}
	}
	// Jobs run in submission order on the single worker; each Put past
	// MaxStoredResults evicts one entry.
	createJob(t, ts.URL, JobRequest{Synthetic: &SyntheticRef{Scene: "hurricane", Size: 16, Seed: 1, Frames: 4}})
	createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 16, Seed: 11, Frames: 8},
		Fault:     &FaultSpec{Seed: 5, FailFrames: 1, FlakyFrames: 1, DamageFrames: 1},
	})
	createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 16, Seed: 2, Frames: 3},
		Fault:     &FaultSpec{Seed: 1, FailFrames: 3},
	})

	s.instrument("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })(
		httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/boom", nil))
	s.rejectSaturated(httptest.NewRecorder(), http.StatusTooManyRequests)

	// When the first blocker starts, every job before it has finished and
	// been counted; the second waits in the queue (depth 1).
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	for _, task := range []func(context.Context){
		func(context.Context) { close(started); <-release },
		func(context.Context) { <-release },
	} {
		if err := s.pool.Submit(task); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-started:
	case <-time.After(60 * time.Second):
		t.Fatal("jobs did not drain through the worker")
	}

	compareExposition(t, scrapeMetrics(t, ts.URL), "metrics_server.txt")
}

func scrapeMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// compareExposition masks the clock-driven values of text and compares
// it with testdata/golden byte for byte (-update rewrites the file).
func compareExposition(t *testing.T, text, golden string) {
	t.Helper()
	const latency = "smaserve_http_request_duration_seconds"
	lines := strings.SplitAfter(text, "\n")
	var last uint64 // cumulative bucket count of the current route
	for i, line := range lines {
		name, val, ok := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(name, "{")
		switch series {
		case "smaserve_goroutines", "smaserve_uptime_seconds", "smaserve_cluster_uptime_seconds", latency + "_sum":
			lines[i] = name + " <masked>\n"
		case latency + "_bucket":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || (n < last && !strings.Contains(name, `le="0.005"`)) {
				t.Errorf("bucket %s = %q is not cumulative (previous %d)", name, val, last)
			}
			last = n
			lines[i] = name + " <masked>\n"
		case latency + "_count":
			if strconv.FormatUint(last, 10) != val {
				t.Errorf("%s = %s, +Inf bucket %d", name, val, last)
			}
		}
	}
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", golden)
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

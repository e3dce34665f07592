package cluster

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sma/internal/server"
)

var updateExposition = flag.Bool("update", false, "rewrite the /metrics exposition golden under testdata/")

// TestClusterMetricsExposition pins the coordinator's whole /metrics
// text. One job runs under an injected dead node and a flaky shard, so
// every dispatch counter reads the plan's exact expectation, and one
// rejection is counted. The drain waits for the job's accounting before
// the scrape. Only the goroutine count and uptime are masked.
func TestClusterMetricsExposition(t *testing.T) {
	c, err := New(Config{
		Workers:        []string{testWorkerNode(t).URL, testWorkerNode(t).URL},
		ShardPairs:     2,
		HealthInterval: 100 * time.Millisecond,
		RetryDelay:     5 * time.Millisecond,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.Start(ctx)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	req := JobRequest{ClusterFault: &FaultSpec{Seed: 1, DeadNodes: []int{1}, Flaky: []FlakySpec{{Shard: 0, Attempts: 1}}}}
	req.Synthetic = &server.SyntheticRef{Scene: "hurricane", Size: 16, Seed: 3, Frames: 5}
	var view JobView
	if err := (server.JobClient{URL: ts.URL, Poll: 10 * time.Millisecond}).Run(ctx, req, &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != server.JobDone {
		t.Fatalf("job finished %s: %s", view.Status, view.Error)
	}
	c.rejectSaturated(httptest.NewRecorder())

	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	if err := c.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	lines := strings.SplitAfter(string(text), "\n")
	for i, line := range lines {
		for _, clock := range []string{"smaserve_goroutines ", "smaserve_cluster_uptime_seconds "} {
			if strings.HasPrefix(line, clock) {
				lines[i] = clock + "<masked>\n"
			}
		}
	}
	got := strings.Join(lines, "")
	path := filepath.Join("testdata", "metrics_coordinator.txt")
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

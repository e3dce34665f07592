package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/fault"
	"sma/internal/server"
)

// testWorkerNode spins a minimal worker process stand-in: the shard
// endpoint plus /readyz, the two routes the coordinator talks to.
func testWorkerNode(t *testing.T) *httptest.Server {
	t.Helper()
	wk := NewWorker(WorkerConfig{Concurrency: 4, RowWorkers: 1, Logf: func(string, ...any) {}})
	mux := http.NewServeMux()
	mux.Handle("POST "+ShardPath, wk)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// testCoordinator builds and starts a coordinator over the given worker
// URLs, returning its HTTP server.
func testCoordinator(t *testing.T, urls []string, shardPairs int) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(Config{
		Workers:        urls,
		ShardPairs:     shardPairs,
		HealthInterval: 100 * time.Millisecond,
		RetryDelay:     5 * time.Millisecond,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := c.Shutdown(sctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		cancel()
	})
	return c, ts
}

func createClusterJob(t *testing.T, url string, req JobRequest) JobView {
	t.Helper()
	var view JobView
	if _, err := (server.JobClient{URL: url}).Submit(context.Background(), req, &view); err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return view
}

func waitClusterJob(t *testing.T, url, id string, timeout time.Duration) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var view JobView
	if err := (server.JobClient{URL: url, Poll: 50 * time.Millisecond}).Await(ctx, id, &view); err != nil {
		t.Fatalf("job %s (last seen %q): %v", id, view.Status, err)
	}
	return view
}

func fetchResult(t *testing.T, url, id string) []byte {
	t.Helper()
	data, err := (server.JobClient{URL: url}).Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClusterBitIdentity is the tentpole acceptance test: the merged
// SMP1 stream of a 3-worker cluster job must be byte-identical to the
// single-node smaserve result stream for the same job, and each decoded
// field must be byte-identical to the offline sequential tracker.
func TestClusterBitIdentity(t *testing.T) {
	urls := []string{testWorkerNode(t).URL, testWorkerNode(t).URL, testWorkerNode(t).URL}
	_, cts := testCoordinator(t, urls, 2)

	const frames = 9
	ref := server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 17, Frames: frames}
	req := JobRequest{}
	req.Synthetic = &ref

	view := createClusterJob(t, cts.URL, req)
	done := waitClusterJob(t, cts.URL, view.ID, 60*time.Second)
	if done.Status != server.JobDone {
		t.Fatalf("cluster job finished %s: %s", done.Status, done.Error)
	}
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("cluster tracked %d pairs, want %d", done.Stats.PairsTracked, frames-1)
	}
	if done.Cluster.Shards != 4 || done.Cluster.Reassigned != 0 || done.Cluster.DispatchRetries != 0 {
		t.Fatalf("clean run accounting %+v, want 4 shards and zero faults", done.Cluster)
	}
	clusterBytes := fetchResult(t, cts.URL, view.ID)

	// Single-node reference: the same job on a plain smaserve with retain.
	srv := server.New(server.Config{Workers: 1})
	sts := httptest.NewServer(srv.Handler())
	defer func() {
		sts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()
	sbody, _ := json.Marshal(server.JobRequest{Synthetic: &ref, Retain: true})
	resp, err := http.Post(sts.URL+"/v1/jobs", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	var sview server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&sview); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		r2, err := http.Get(sts.URL + "/v1/jobs/" + sview.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v server.JobView
		if err := json.NewDecoder(r2.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if v.Status == server.JobDone {
			break
		}
		if v.Status == server.JobFailed || time.Now().After(deadline) {
			t.Fatalf("single-node job %s: %s", v.Status, v.Error)
		}
		time.Sleep(50 * time.Millisecond)
	}
	singleBytes := fetchResult(t, sts.URL, sview.ID)

	if !bytes.Equal(clusterBytes, singleBytes) {
		t.Fatalf("cluster result (%d bytes) differs from single-node result (%d bytes)",
			len(clusterBytes), len(singleBytes))
	}

	// And both match the offline tracker pair by pair.
	scene, err := ref.SceneOf()
	if err != nil {
		t.Fatal(err)
	}
	pr := server.NewPairStreamReader(bytes.NewReader(clusterBytes))
	n := 0
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding merged record %d: %v", n, err)
		}
		want, err := core.TrackSequential(core.Monocular(
			scene.Frame(float64(rec.Pair)), scene.Frame(float64(rec.Pair+1))),
			core.ScaledParams(), core.Options{})
		if err != nil {
			t.Fatalf("offline pair %d: %v", rec.Pair, err)
		}
		var wantBuf bytes.Buffer
		if err := server.NewMotionField("", want).WriteBinary(&wantBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Field, wantBuf.Bytes()) {
			t.Fatalf("merged pair %d differs from the offline tracker", rec.Pair)
		}
		n++
	}
	if n != frames-1 {
		t.Fatalf("merged stream carried %d pairs, want %d", n, frames-1)
	}
}

// TestClusterDispatchMatchesExpect locks the coordinator's placement
// loop to fault.ClusterPlan.Expect: an injected dead node plus shard
// flakes must produce exactly the predicted retries, reassignments,
// node losses, and final placement — and the job must still deliver
// every pair bit-identically.
func TestClusterDispatchMatchesExpect(t *testing.T) {
	urls := []string{testWorkerNode(t).URL, testWorkerNode(t).URL, testWorkerNode(t).URL}
	_, cts := testCoordinator(t, urls, 2)

	const frames = 13 // 12 pairs → 6 shards over 3 nodes
	spec := &FaultSpec{
		Seed:      5,
		DeadNodes: []int{1},
		Flaky:     []FlakySpec{{Shard: 0, Attempts: 2}, {Shard: 5, Attempts: 1}},
	}
	plan := spec.Plan()
	shards := (frames - 1 + 1) / 2
	want := plan.Expect(shards, len(urls))

	req := JobRequest{ClusterFault: spec}
	req.Synthetic = &server.SyntheticRef{Scene: "shear", Size: 32, Seed: 3, Frames: frames}
	view := createClusterJob(t, cts.URL, req)
	done := waitClusterJob(t, cts.URL, view.ID, 60*time.Second)
	if done.Status != server.JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	got := done.Cluster
	if got.DispatchRetries != want.DispatchRetries {
		t.Fatalf("DispatchRetries = %d, want %d", got.DispatchRetries, want.DispatchRetries)
	}
	if got.Reassigned != want.Reassigned {
		t.Fatalf("Reassigned = %d, want %d", got.Reassigned, want.Reassigned)
	}
	if got.NodesLost != want.NodesLost {
		t.Fatalf("NodesLost = %d, want %d", got.NodesLost, want.NodesLost)
	}
	if len(got.Placement) != len(want.Placement) {
		t.Fatalf("placement %v, want %v", got.Placement, want.Placement)
	}
	for k := range want.Placement {
		if got.Placement[k] != want.Placement[k] {
			t.Fatalf("shard %d placed on node %d, want %d (placement %v)", k, got.Placement[k], want.Placement[k], got.Placement)
		}
	}
	// Degraded-never-wrong: every pair still delivered and ok.
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("tracked %d pairs under faults, want %d", done.Stats.PairsTracked, frames-1)
	}
	for _, p := range done.Pairs {
		if p.Status != server.PairOK {
			t.Fatalf("pair %d is %s after reassignment: %s", p.Pair, p.Status, p.Error)
		}
	}
}

// TestClusterRealDeadWorker kills a worker process (its listener, which
// is what a SIGKILLed process looks like to the coordinator) before the
// job: the synchronous first heartbeat sees it dead, and the accounting
// matches the equivalent injected plan exactly.
func TestClusterRealDeadWorker(t *testing.T) {
	w0, w1 := testWorkerNode(t), testWorkerNode(t)
	dead := testWorkerNode(t)
	deadURL := dead.URL
	dead.Close() // node 1 of 3 is gone before the coordinator starts

	_, cts := testCoordinator(t, []string{w0.URL, deadURL, w1.URL}, 2)

	const frames = 9 // 8 pairs → 4 shards
	plan := fault.NewClusterPlan(0, []int{1})
	want := plan.Expect(4, 3)

	req := JobRequest{}
	req.Synthetic = &server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 7, Frames: frames}
	view := createClusterJob(t, cts.URL, req)
	done := waitClusterJob(t, cts.URL, view.ID, 60*time.Second)
	if done.Status != server.JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	got := done.Cluster
	if got.DispatchRetries != want.DispatchRetries || got.Reassigned != want.Reassigned || got.NodesLost != want.NodesLost {
		t.Fatalf("dead-worker accounting %+v, want %+v", got, want)
	}
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("tracked %d pairs, want %d", done.Stats.PairsTracked, frames-1)
	}
}

// TestShutdownUnstarted: a coordinator whose Start never ran shuts down
// promptly — its registry has no heartbeat loop to join.
func TestShutdownUnstarted(t *testing.T) {
	co, err := New(Config{Workers: []string{"http://127.0.0.1:1"}, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- co.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown of an unstarted coordinator did not return")
	}
}

// TestRegistryRevival: a worker that comes back (a restart) passes its
// next heartbeat and rejoins dispatch.
func TestRegistryRevival(t *testing.T) {
	ready := true
	var mux http.ServeMux
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	ts := httptest.NewServer(&mux)
	defer ts.Close()

	reg := NewRegistry([]string{ts.URL}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg.Start(ctx, 30*time.Millisecond)
	defer reg.Stop()

	if !reg.Alive(0) {
		t.Fatal("healthy worker marked dead by first probe")
	}
	ready = false
	deadline := time.Now().Add(5 * time.Second)
	for reg.Alive(0) {
		if time.Now().After(deadline) {
			t.Fatal("failing worker never marked dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ready = true
	deadline = time.Now().Add(5 * time.Second)
	for !reg.Alive(0) {
		if time.Now().After(deadline) {
			t.Fatal("recovered worker never revived")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if reg.Snapshot()[0].Failures == 0 {
		t.Fatal("health failures not counted")
	}
}

// TestClusterRejectsFrameFaults: frame-level fault specs are a 400 on
// cluster jobs (boundary frames would double-count across shards).
func TestClusterRejectsFrameFaults(t *testing.T) {
	_, cts := testCoordinator(t, []string{testWorkerNode(t).URL}, 2)
	body := `{"synthetic":{"size":32,"frames":4},"fault":{"seed":1,"fail_frames":1}}`
	resp, err := http.Post(cts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("frame-fault cluster job status %d, want 400", resp.StatusCode)
	}
	// A plan that kills every node is rejected too.
	body = `{"synthetic":{"size":32,"frames":4},"cluster_fault":{"dead_nodes":[0]}}`
	resp, err = http.Post(cts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("all-dead cluster plan status %d, want 400", resp.StatusCode)
	}
}

// TestClusterErrorBody: both cluster roles answer errors with the
// single-node envelope byte for byte, HTML-escaped by encoding/json.
func TestClusterErrorBody(t *testing.T) {
	wts := testWorkerNode(t)
	_, cts := testCoordinator(t, []string{wts.URL}, 2)
	for _, tc := range []struct{ url, body, want string }{
		{cts.URL + "/v1/jobs", `{"synthetic":{"scene":"<b>","frames":4}}`,
			`{"error":"server: unknown synthetic scene \"\u003cb\u003e\" (want hurricane, thunderstorm or shear)"}` + "\n"},
		{wts.URL + ShardPath, `{`, `{"error":"bad shard request: unexpected EOF"}` + "\n"},
	} {
		resp, err := http.Post(tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || string(got) != tc.want {
			t.Errorf("POST %s: %d %q, want 400 %q", tc.url, resp.StatusCode, got, tc.want)
		}
	}
}

// TestClusterViewAndReadyz: the topology endpoint reports liveness, and
// readiness requires at least one alive worker.
func TestClusterViewAndReadyz(t *testing.T) {
	w0 := testWorkerNode(t)
	_, cts := testCoordinator(t, []string{w0.URL}, 2)

	resp, err := http.Get(cts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var view ClusterView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(view.Workers) != 1 || view.Alive != 1 || view.ShardPairs != 2 {
		t.Fatalf("cluster view %+v", view)
	}

	r2, err := http.Get(cts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d with an alive worker", r2.StatusCode)
	}
}

// TestShardRangeMath locks the shard cutter.
func TestShardRangeMath(t *testing.T) {
	got := makeShards(8, 3)
	want := []shardRange{{0, 3}, {3, 6}, {6, 8}}
	if len(got) != len(want) {
		t.Fatalf("shards %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shards %v, want %v", got, want)
		}
	}
	if n := len(makeShards(1, 8)); n != 1 {
		t.Fatalf("1 pair cut into %d shards", n)
	}
}

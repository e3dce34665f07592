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
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/server"
	"sma/internal/stream"
)

// openDurableCoordinator builds a coordinator over dir, runs recovery,
// starts heartbeats, and serves it. The caller shuts it down.
func openDurableCoordinator(t *testing.T, urls []string, shardPairs int, dir string) (*Coordinator, *httptest.Server, server.RecoveryStats) {
	t.Helper()
	c, err := New(Config{
		Workers:        urls,
		ShardPairs:     shardPairs,
		DataDir:        dir,
		HealthInterval: 100 * time.Millisecond,
		RetryDelay:     5 * time.Millisecond,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rs, err := c.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	c.Start(context.Background())
	return c, httptest.NewServer(c.Handler()), rs
}

func shutdownCoordinator(t *testing.T, c *Coordinator, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Errorf("coordinator shutdown: %v", err)
	}
}

// offlineField renders the sequential tracker's SMF1 bytes for one pair —
// the byte-identity oracle recovered cluster jobs are held to.
func offlineField(t *testing.T, ref server.SyntheticRef, pair int) []byte {
	t.Helper()
	scene, err := ref.SceneOf()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.TrackSequential(core.Monocular(
		scene.Frame(float64(ref.T0+pair)), scene.Frame(float64(ref.T0+pair+1))),
		core.ScaledParams(), core.Options{})
	if err != nil {
		t.Fatalf("offline track of pair %d: %v", pair, err)
	}
	var buf bytes.Buffer
	if err := server.NewMotionField("", res).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertClusterResult(t *testing.T, ref server.SyntheticRef, data []byte) {
	t.Helper()
	pr := server.NewPairStreamReader(bytes.NewReader(data))
	n := 0
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding record %d: %v", n, err)
		}
		if rec.Pair != n || rec.Status != server.PairOK {
			t.Fatalf("record %d = pair %d status %s, want ok in order", n, rec.Pair, rec.Status)
		}
		if !bytes.Equal(rec.Field, offlineField(t, ref, rec.Pair)) {
			t.Fatalf("pair %d differs from the offline tracker", rec.Pair)
		}
		n++
	}
	if n != ref.Frames-1 {
		t.Fatalf("stream carried %d pairs, want %d", n, ref.Frames-1)
	}
}

// TestClusterDurableRestoreAcrossRestart: a finished cluster job survives
// a coordinator restart with its merged result bytes intact.
func TestClusterDurableRestoreAcrossRestart(t *testing.T) {
	urls := []string{testWorkerNode(t).URL, testWorkerNode(t).URL}
	dir := t.TempDir()
	c1, ts1, _ := openDurableCoordinator(t, urls, 2, dir)
	ref := server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 23, Frames: 7}
	req := JobRequest{}
	req.Synthetic = &ref
	view := createClusterJob(t, ts1.URL, req)
	done := waitClusterJob(t, ts1.URL, view.ID, 60*time.Second)
	if done.Status != server.JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	before := fetchResult(t, ts1.URL, view.ID)
	shutdownCoordinator(t, c1, ts1)

	c2, ts2, rs := openDurableCoordinator(t, urls, 2, dir)
	defer shutdownCoordinator(t, c2, ts2)
	if rs.Restored != 1 || rs.Resumed != 0 {
		t.Fatalf("recovery stats = %+v, want one restored job", rs)
	}
	after := fetchResult(t, ts2.URL, view.ID)
	if !bytes.Equal(before, after) {
		t.Fatal("restored cluster result differs from the pre-restart bytes")
	}
	assertClusterResult(t, ref, after)
	got := waitClusterJob(t, ts2.URL, view.ID, time.Second)
	if got.Recovered != "restored" || got.Status != server.JobDone {
		t.Fatalf("restored view: status %s recovered %q", got.Status, got.Recovered)
	}

	var list server.JobListView
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != view.ID || list.Jobs[0].Recovered != "restored" {
		t.Fatalf("job list = %+v, want the restored job", list.Jobs)
	}
}

// TestClusterResumeSkipsDoneShards crafts a journal describing a
// coordinator that died with one shard checkpointed, then recovers it:
// only the unfinished shards re-dispatch, and the merged output is
// byte-identical to an uninterrupted run.
func TestClusterResumeSkipsDoneShards(t *testing.T) {
	dir := t.TempDir()
	const frames = 9 // 8 pairs → 4 shards of 2
	ref := server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 29, Frames: frames}
	const id = "feedface00000001"

	jl, err := server.OpenJobLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := server.NewFileStore(server.FileStoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Spec(id, &server.JobRequest{Synthetic: &ref}, frames, time.Now().Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	// Shard 1 (pairs 2,3) completed before the crash — out of order is
	// fine, cluster resume keys on shards, not a contiguous pair prefix.
	for p := 2; p < 4; p++ {
		if err := fs.PutField(id, p, offlineField(t, ref, p)); err != nil {
			t.Fatal(err)
		}
		jl.Pair(id, server.PairSummary{Pair: p, Status: server.PairOK, MeanMag: 1})
	}
	jl.ShardDone(id, 1, server.ShardCheckpoint{
		Node: "http://crashed-run", Lo: 2, Hi: 4,
		Stats: stream.Stats{FramesIn: 3, PairsTracked: 2},
	})
	// Shard 2's pair events never landed (simulated append loss): its
	// checkpoint is incomplete and the shard must re-run.
	jl.ShardDone(id, 2, server.ShardCheckpoint{Node: "http://crashed-run", Lo: 4, Hi: 6})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	urls := []string{testWorkerNode(t).URL, testWorkerNode(t).URL}
	c, ts, rs := openDurableCoordinator(t, urls, 2, dir)
	defer shutdownCoordinator(t, c, ts)
	if rs.Resumed != 1 || rs.Restored != 0 {
		t.Fatalf("recovery stats = %+v, want one resumed job", rs)
	}
	done := waitClusterJob(t, ts.URL, id, 60*time.Second)
	if done.Status != server.JobDone {
		t.Fatalf("resumed job finished %s: %s", done.Status, done.Error)
	}
	if done.Recovered != "resumed" {
		t.Fatalf("recovered = %q, want resumed", done.Recovered)
	}
	if done.Cluster.ShardsRestored != 1 {
		t.Fatalf("ShardsRestored = %d, want 1 (the complete checkpoint only)", done.Cluster.ShardsRestored)
	}
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("tracked %d pairs after resume, want %d", done.Stats.PairsTracked, frames-1)
	}
	assertClusterResult(t, ref, fetchResult(t, ts.URL, id))
}

// TestClusterDrainPendingResume: a forced coordinator drain checkpoints
// a running job pending, and a restart finishes it against live workers.
func TestClusterDrainPendingResume(t *testing.T) {
	// A worker whose shard endpoint blocks until the request dies: the
	// job is guaranteed mid-flight when the drain hits.
	var mux http.ServeMux
	mux.HandleFunc("POST "+ShardPath, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so net/http's background read is armed — without
		// it the request context never notices the client disconnect and
		// this handler (and the test's deferred Close) would hang forever.
		io.Copy(io.Discard, r.Body) //smavet:allow errdiscard -- test stub
		<-r.Context().Done()
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	stuck := httptest.NewServer(&mux)
	defer stuck.Close()

	dir := t.TempDir()
	c1, ts1, _ := openDurableCoordinator(t, []string{stuck.URL}, 2, dir)
	ref := server.SyntheticRef{Scene: "shear", Size: 32, Seed: 31, Frames: 4}
	req := JobRequest{}
	req.Synthetic = &ref
	view := createClusterJob(t, ts1.URL, req)
	ts1.Close()
	expired, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := c1.Shutdown(expired); err == nil {
		t.Fatal("forced drain reported clean shutdown")
	}

	c2, ts2, rs := openDurableCoordinator(t, []string{testWorkerNode(t).URL}, 2, dir)
	defer shutdownCoordinator(t, c2, ts2)
	if rs.Resumed != 1 {
		t.Fatalf("recovery stats = %+v, want the drained job resumed", rs)
	}
	done := waitClusterJob(t, ts2.URL, view.ID, 60*time.Second)
	if done.Status != server.JobDone {
		t.Fatalf("resumed job finished %s: %s", done.Status, done.Error)
	}
	if done.Recovered != "resumed" {
		t.Fatalf("recovered = %q, want resumed", done.Recovered)
	}
	assertClusterResult(t, ref, fetchResult(t, ts2.URL, view.ID))
}

// TestClusterDurableJobSpillsFields: a durable coordinator drops each
// merged field from memory once its shard checkpoint made it durable, and
// streams the result back from disk byte-identically.
func TestClusterDurableJobSpillsFields(t *testing.T) {
	urls := []string{testWorkerNode(t).URL, testWorkerNode(t).URL}
	c, ts, _ := openDurableCoordinator(t, urls, 2, t.TempDir())
	defer shutdownCoordinator(t, c, ts)
	ref := server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 23, Frames: 5}
	req := JobRequest{}
	req.Synthetic = &ref
	view := createClusterJob(t, ts.URL, req)
	if done := waitClusterJob(t, ts.URL, view.ID, 60*time.Second); done.Status != server.JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	// Each field is larger than the size bound below, so the bound holds
	// only if every field left memory; the result check then proves each
	// spilled field was marked on disk and reads back.
	v, _ := c.jobs.Store.Get(view.ID)
	job := v.(*clusterJob)
	if sz := job.SizeBytes(); sz > 1024 {
		t.Fatalf("finished durable job charged %d bytes, want index overhead only", sz)
	}
	assertClusterResult(t, ref, fetchResult(t, ts.URL, view.ID))
}

// TestClusterDurableRestoreUnderByteCap: a finished cluster job whose
// merged fields are bigger than the store's byte cap survives a
// coordinator restart with its result bytes intact; the restore keeps
// its fields on disk instead of charging them to the store.
func TestClusterDurableRestoreUnderByteCap(t *testing.T) {
	urls := []string{testWorkerNode(t).URL, testWorkerNode(t).URL}
	dir := t.TempDir()
	open := func() (*Coordinator, *httptest.Server, server.RecoveryStats) {
		t.Helper()
		c, err := New(Config{
			Workers:        urls,
			ShardPairs:     2,
			DataDir:        dir,
			MaxStoredBytes: 8 << 10,
			HealthInterval: 100 * time.Millisecond,
			RetryDelay:     5 * time.Millisecond,
			Logf:           func(string, ...any) {},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rs, err := c.Recover(context.Background())
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		c.Start(context.Background())
		return c, httptest.NewServer(c.Handler()), rs
	}
	c1, ts1, _ := open()
	ref := server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 23, Frames: 4}
	req := JobRequest{}
	req.Synthetic = &ref
	view := createClusterJob(t, ts1.URL, req)
	if done := waitClusterJob(t, ts1.URL, view.ID, 60*time.Second); done.Status != server.JobDone {
		t.Fatalf("job finished %s: %s", done.Status, done.Error)
	}
	before := fetchResult(t, ts1.URL, view.ID)
	if len(before) <= 8<<10 {
		t.Fatalf("result stream is %d bytes; the test needs fields larger than the cap", len(before))
	}
	shutdownCoordinator(t, c1, ts1)

	for restart := 1; restart <= 2; restart++ {
		c, ts, rs := open()
		if rs.Restored != 1 {
			t.Fatalf("restart %d: recovery stats = %+v, want the job restored", restart, rs)
		}
		got := waitClusterJob(t, ts.URL, view.ID, time.Second)
		if got.Recovered != "restored" || got.Status != server.JobDone {
			t.Fatalf("restart %d: restored view: status %s recovered %q", restart, got.Status, got.Recovered)
		}
		if after := fetchResult(t, ts.URL, view.ID); !bytes.Equal(before, after) {
			t.Fatalf("restart %d: restored cluster result differs from the pre-restart bytes", restart)
		}
		shutdownCoordinator(t, c, ts)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"sma/internal/core"
)

// openDurable builds a durable server over dir, runs recovery, and
// serves it over httptest. The caller shuts it down (possibly abruptly).
func openDurable(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server, RecoveryStats) {
	t.Helper()
	cfg.DataDir = dir
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rs, err := s.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s, httptest.NewServer(s.Handler()), rs
}

// referenceField renders the offline tracker's SMF1 bytes for one pair of
// the synthetic scene — the byte-identity oracle recovery is held to.
func referenceField(t *testing.T, ref SyntheticRef, pair int) []byte {
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
	if err := NewMotionField("", res).WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fetchResult downloads and returns a job's raw SMP1 result stream.
func fetchResult(t *testing.T, url, id string) []byte {
	t.Helper()
	b, err := (JobClient{URL: url}).Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertResultMatches decodes an SMP1 stream and compares every pair to
// the offline reference.
func assertResultMatches(t *testing.T, ref SyntheticRef, stream []byte) {
	t.Helper()
	pr := NewPairStreamReader(bytes.NewReader(stream))
	n := 0
	for {
		rec, err := pr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("decoding record %d: %v", n, err)
		}
		if rec.Pair != n || rec.Status != PairOK {
			t.Fatalf("record %d = pair %d status %s, want ok in order", n, rec.Pair, rec.Status)
		}
		if !bytes.Equal(rec.Field, referenceField(t, ref, rec.Pair)) {
			t.Fatalf("pair %d differs from the offline tracker", rec.Pair)
		}
		n++
	}
	if n != ref.Frames-1 {
		t.Fatalf("stream carried %d pairs, want %d", n, ref.Frames-1)
	}
}

// TestDurableRestoreAcrossRestart: finished jobs survive a restart —
// status, summaries, and result bytes — while deleted jobs stay gone.
func TestDurableRestoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1, _ := openDurable(t, dir, Config{Workers: 2})
	ref := SyntheticRef{Scene: "hurricane", Size: 32, Seed: 11, Frames: 4}
	kept := createJob(t, ts1.URL, JobRequest{Synthetic: &ref, Retain: true})
	gone := createJob(t, ts1.URL, JobRequest{Synthetic: &ref})
	waitForJob(t, ts1.URL, kept.ID, JobDone, 30*time.Second)
	waitForJob(t, ts1.URL, gone.ID, JobDone, 30*time.Second)
	before := fetchResult(t, ts1.URL, kept.ID)
	// Simulate retention dropping one job: its journal state must go too.
	s1.jobs.Store.Delete(gone.ID)
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2, ts2, rs := openDurable(t, dir, Config{Workers: 2})
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if rs.Restored != 1 || rs.Resumed != 0 {
		t.Fatalf("recovery stats = %+v, want exactly the kept job restored", rs)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + gone.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job resurrected with status %d", resp.StatusCode)
	}

	var view JobView
	resp, err = http.Get(ts2.URL + "/v1/jobs/" + kept.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Status != JobDone || view.Recovered != "restored" {
		t.Fatalf("restored view = status %s recovered %q", view.Status, view.Recovered)
	}
	if len(view.Pairs) != ref.Frames-1 {
		t.Fatalf("restored job lost pair summaries: %d", len(view.Pairs))
	}
	after := fetchResult(t, ts2.URL, kept.ID)
	if !bytes.Equal(before, after) {
		t.Fatal("restored result stream differs from the pre-restart bytes")
	}
	assertResultMatches(t, ref, after)

	// The list endpoint surfaces what recovery restored.
	var list JobListView
	resp, err = http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != kept.ID || list.Jobs[0].Recovered != "restored" {
		t.Fatalf("job list = %+v, want the restored job", list.Jobs)
	}
}

// TestDurableResumeFromCheckpoint crafts a journal describing a job that
// died after checkpointing its first two pairs, then recovers it: only
// the remaining pairs re-run, and the merged output is byte-identical to
// an uninterrupted run.
func TestDurableResumeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const frames = 5
	ref := SyntheticRef{Scene: "hurricane", Size: 32, Seed: 7, Frames: frames}

	jl, err := OpenJobLog(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFileStore(FileStoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := JobRequest{Synthetic: &ref, Retain: true}
	const id = "00deadbeef000001"
	if err := jl.Spec(id, &req, frames, time.Now().Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 2; p++ {
		smf := referenceField(t, ref, p)
		if err := fs.PutField(id, p, smf); err != nil {
			t.Fatal(err)
		}
		jl.Pair(id, PairSummary{Pair: p, Status: PairOK, MeanMag: 1})
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	s, ts, rs := openDurable(t, dir, Config{Workers: 2})
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if rs.Resumed != 1 || rs.Restored != 0 {
		t.Fatalf("recovery stats = %+v, want exactly one resumed job", rs)
	}
	view := waitForJob(t, ts.URL, id, JobDone, 30*time.Second)
	if view.Recovered != "resumed" {
		t.Fatalf("recovered = %q, want resumed", view.Recovered)
	}
	if len(view.Pairs) != frames-1 {
		t.Fatalf("resumed job reports %d pairs, want %d", len(view.Pairs), frames-1)
	}
	// Stats must match an uninterrupted run's totals: the checkpointed
	// prefix is folded back in.
	if view.Stats.FramesIn != frames || view.Stats.PairsTracked != frames-1 {
		t.Fatalf("stats = %+v, want FramesIn %d PairsTracked %d", view.Stats, frames, frames-1)
	}
	assertResultMatches(t, ref, fetchResult(t, ts.URL, id))
}

// TestDurableDrainPending: a SIGTERM drain must not silently abandon
// queued jobs — they are checkpointed pending and resume on restart.
// (This was the pre-durability behavior: forced drain marked them
// cancelled and the work was lost.)
func TestDurableDrainPending(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 4}
	s1, ts1, _ := openDurable(t, dir, cfg)
	// Occupy the lone worker until the drain escalates.
	if err := s1.pool.Submit(func(ctx context.Context) { <-ctx.Done() }); err != nil {
		t.Fatal(err)
	}
	ref := SyntheticRef{Scene: "shear", Size: 32, Seed: 3, Frames: 3}
	queued := createJob(t, ts1.URL, JobRequest{Synthetic: &ref, Retain: true})
	ts1.Close()
	// An already-cancelled drain context forces immediate escalation: the
	// queued job starts, sees the cancelled context and the draining flag,
	// and must journal itself pending instead of cancelled.
	expired, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := s1.Shutdown(expired); err == nil {
		t.Fatal("forced drain reported clean shutdown")
	}

	s2, ts2, rs := openDurable(t, dir, cfg)
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	if rs.Resumed != 1 {
		t.Fatalf("recovery stats = %+v, want the drained job resumed", rs)
	}
	view := waitForJob(t, ts2.URL, queued.ID, JobDone, 30*time.Second)
	if view.Recovered != "resumed" {
		t.Fatalf("recovered = %q, want resumed", view.Recovered)
	}
	assertResultMatches(t, ref, fetchResult(t, ts2.URL, queued.ID))
}

// TestDurableJobSpillsFields: once a durable job's pair is checkpointed
// its field leaves memory — the finished job is charged index overhead
// only — and the result stream reads it back byte-identically. A field
// lost from disk fails the stream instead of truncating it.
func TestDurableJobSpillsFields(t *testing.T) {
	s, ts, _ := openDurable(t, t.TempDir(), Config{Workers: 2})
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	ref := SyntheticRef{Scene: "hurricane", Size: 32, Seed: 11, Frames: 4}
	view := createJob(t, ts.URL, JobRequest{Synthetic: &ref, Retain: true})
	waitForJob(t, ts.URL, view.ID, JobDone, 30*time.Second)
	v, _ := s.jobs.Store.Get(view.ID)
	job := v.(*Job)
	job.mu.Lock()
	for p, f := range job.fields {
		if f != nil || p >= len(job.onDisk) || !job.onDisk[p] {
			job.mu.Unlock()
			t.Fatalf("pair %d not spilled to disk (%d bytes in memory)", p, len(f))
		}
	}
	job.mu.Unlock()
	if sz := job.SizeBytes(); sz > 1024 {
		t.Fatalf("finished durable job charged %d bytes, want index overhead only", sz)
	}
	assertResultMatches(t, ref, fetchResult(t, ts.URL, view.ID))

	if err := os.Remove(s.jobs.Fields.fieldPath(view.ID, 1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("result with a lost field answered %d, want 500", resp.StatusCode)
	}
}

// TestDurableRestoreUnderByteCap: a retained job whose fields are bigger
// than the store's byte cap survives a restart. A durable job is charged
// index memory only while it runs; restoring it must keep its fields on
// disk too, or the restored job is evicted the moment it is stored and
// its journal state and fields are deleted with it.
func TestDurableRestoreUnderByteCap(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, MaxStoredBytes: 8 << 10}
	s1, ts1, _ := openDurable(t, dir, cfg)
	ref := SyntheticRef{Scene: "hurricane", Size: 32, Seed: 11, Frames: 4}
	view := createJob(t, ts1.URL, JobRequest{Synthetic: &ref, Retain: true})
	waitForJob(t, ts1.URL, view.ID, JobDone, 30*time.Second)
	before := fetchResult(t, ts1.URL, view.ID)
	if len(before) <= 8<<10 {
		t.Fatalf("result stream is %d bytes; the test needs fields larger than the cap", len(before))
	}
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Two restarts: the first restore must not delete the job, so the
	// second finds it in the journal again.
	for restart := 1; restart <= 2; restart++ {
		s, ts, rs := openDurable(t, dir, cfg)
		if rs.Restored != 1 {
			t.Fatalf("restart %d: recovery stats = %+v, want the job restored", restart, rs)
		}
		got := waitForJob(t, ts.URL, view.ID, JobDone, time.Second)
		if got.Recovered != "restored" {
			t.Fatalf("restart %d: recovered = %q, want restored", restart, got.Recovered)
		}
		if after := fetchResult(t, ts.URL, view.ID); !bytes.Equal(before, after) {
			t.Fatalf("restart %d: restored result stream differs from the pre-restart bytes", restart)
		}
		ts.Close()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("restart %d: shutdown: %v", restart, err)
		}
	}
}

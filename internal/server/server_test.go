package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sma/internal/core"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func postTrack(t *testing.T, url string, opt LoadOptions) *http.Response {
	t.Helper()
	body, contentType, _, err := BuildTrackRequest(opt)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	resp, err := http.Post(url+"/v1/track", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/track: %v", err)
	}
	return resp
}

// TestTrackBitIdentity is the acceptance check: the motion field served
// over HTTP must be bit-identical to what smatrack computes offline for
// the same frame pair (same uploaded bytes, same parameters).
func TestTrackBitIdentity(t *testing.T) {
	_, ts := testServer(t, Config{})
	opt := LoadOptions{Scene: "hurricane", Size: 48, Seed: 3, Verify: true}
	body, contentType, pair, err := BuildTrackRequest(opt)
	if err != nil {
		t.Fatalf("building request: %v", err)
	}
	want, err := core.TrackSequential(pair, core.ScaledParams(), core.Options{})
	if err != nil {
		t.Fatalf("local track: %v", err)
	}

	resp, err := http.Post(ts.URL+"/v1/track", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	rejected, errMsg, mismatch := consumeTrackResponse(resp, want)
	if rejected || errMsg != "" {
		t.Fatalf("track failed: rejected=%v err=%q", rejected, errMsg)
	}
	if mismatch {
		t.Fatal("served motion field differs from local sequential track")
	}
}

func TestTrackJSONResponse(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := postTrack(t, ts.URL, LoadOptions{Size: 32, Seed: 5})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !contentTypeIsJSON(resp.Header) {
		t.Fatalf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}
	if resp.Header.Get("X-Sma-Track-Id") == "" {
		t.Fatal("missing X-Sma-Track-Id header")
	}
	var field MotionField
	if err := json.NewDecoder(resp.Body).Decode(&field); err != nil {
		t.Fatalf("decoding JSON: %v", err)
	}
	if field.Width != 32 || field.Height != 32 {
		t.Fatalf("field size = %dx%d, want 32x32", field.Width, field.Height)
	}
	if _, _, err := field.Flow(); err != nil {
		t.Fatalf("reconstructing flow: %v", err)
	}
}

func TestTrackSyntheticJSONBody(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := TrackRequest{Synthetic: &SyntheticRef{Scene: "shear", Size: 32, Seed: 9}}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/track", "application/json", &buf)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestTrackSVGRoundTrip(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp := postTrack(t, ts.URL, LoadOptions{Size: 32, Seed: 5})
	id := resp.Header.Get("X-Sma-Track-Id")
	resp.Body.Close()
	if id == "" {
		t.Fatal("no track id")
	}
	svg, err := http.Get(ts.URL + "/v1/track/" + id + "/svg?step=4")
	if err != nil {
		t.Fatalf("GET svg: %v", err)
	}
	defer svg.Body.Close()
	if svg.StatusCode != http.StatusOK {
		t.Fatalf("svg status = %d", svg.StatusCode)
	}
	if ct := svg.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Fatalf("svg Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(svg.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("response does not look like SVG")
	}
	if missing, err := http.Get(ts.URL + "/v1/track/deadbeefdeadbeef/svg"); err != nil {
		t.Fatal(err)
	} else {
		missing.Body.Close()
		if missing.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown id status = %d, want 404", missing.StatusCode)
		}
	}
}

func TestTrackRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{MaxPixels: 1024})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"no synthetic", `{"params":{}}`, http.StatusBadRequest},
		{"bad scene", `{"synthetic":{"scene":"volcano"}}`, http.StatusBadRequest},
		{"too big", `{"synthetic":{"size":256}}`, http.StatusBadRequest},
		{"bad params", `{"synthetic":{"size":16},"params":{"nss":-1}}`, http.StatusBadRequest},
		{"nss beyond int8", `{"synthetic":{"size":16},"params":{"nss":128}}`, http.StatusBadRequest},
		{"nzs beyond int8", `{"synthetic":{"size":16},"params":{"nzs":128}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/track", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

func TestBodySizeLimit(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 1024})
	resp := postTrack(t, ts.URL, LoadOptions{Size: 64, Seed: 5})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestTrackSaturation occupies the whole pool and queue, then asserts the
// next request is rejected immediately with 429 + Retry-After instead of
// queueing unboundedly.
func TestTrackSaturation(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done(): // stay abortable by a forced drain
		}
	}
	started := make(chan struct{})
	if err := s.pool.Submit(func(ctx context.Context) { close(started); block(ctx) }); err != nil {
		t.Fatalf("occupying worker: %v", err)
	}
	<-started // the lone worker now holds task 1
	if err := s.pool.Submit(block); err != nil {
		t.Fatalf("filling queue: %v", err)
	}

	resp := postTrack(t, ts.URL, LoadOptions{Size: 16, Seed: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("missing Retry-After header")
	}
}

// TestTrackTimeoutInterruptsSemiMap: a semi-fluid /v1/track whose
// TrackTimeout expires while the semi-fluid map is being built answers
// 504, and the build stops with it. Built to completion this map takes
// about ten seconds (NSS = 30, NST = 10 on 64²: 4225 patch scores of 441
// samples per pixel), while a row of it takes under a second even under
// the race detector, so the lone pool worker is free again soon after
// the deadline only if the build honoured the request's ctx.
func TestTrackTimeoutInterruptsSemiMap(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, RowWorkers: 1, TrackTimeout: 1500 * time.Millisecond})
	nss := 30
	resp := postTrack(t, ts.URL, LoadOptions{Size: 64, Seed: 3, Binary: true,
		Params: ParamsSpec{NST: 10, NSS: &nss}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	started := make(chan struct{})
	if err := s.pool.Submit(func(context.Context) { close(started) }); err != nil {
		t.Fatalf("submitting probe: %v", err)
	}
	select {
	case <-started:
	case <-time.After(3 * time.Second):
		t.Fatal("pool worker still busy 3s after the deadline: the semi-fluid map build ignored the request ctx")
	}
}

func waitForJob(t *testing.T, url, id string, want JobStatus, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
		if view.Status == want {
			return view
		}
		if view.Status == JobFailed && want != JobFailed {
			t.Fatalf("job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q waiting for %q", view.Status, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func createJob(t *testing.T, url string, req JobRequest) JobView {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", &buf)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("decoding job view: %v", err)
	}
	return view
}

func TestJobLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{})
	const frames = 4
	view := createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 32, Seed: 11, Frames: frames},
	})
	done := waitForJob(t, ts.URL, view.ID, JobDone, 30*time.Second)
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("PairsTracked = %d, want %d", done.Stats.PairsTracked, frames-1)
	}
	if done.Stats.FramesIn != frames {
		t.Fatalf("FramesIn = %d, want %d", done.Stats.FramesIn, frames)
	}
	if len(done.Pairs) != frames-1 {
		t.Fatalf("len(Pairs) = %d, want %d", len(done.Pairs), frames-1)
	}
	if done.Finished == nil || done.Started == nil {
		t.Fatal("done job missing timestamps")
	}
}

func TestJobCancel(t *testing.T) {
	_, ts := testServer(t, Config{})
	view := createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 96, Seed: 2, Frames: 200},
	})
	// Let it start, then cancel mid-run.
	waitForJob(t, ts.URL, view.ID, JobRunning, 10*time.Second)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	got := waitForJob(t, ts.URL, view.ID, JobCancelled, 15*time.Second)
	if got.Stats.PairsTracked >= 199 {
		t.Fatalf("cancelled job tracked all %d pairs", got.Stats.PairsTracked)
	}
}

func TestJobValidation(t *testing.T) {
	_, ts := testServer(t, Config{MaxFrames: 8})
	for _, body := range []string{
		`{"synthetic":{"size":32,"frames":1}}`,
		`{"synthetic":{"size":32,"frames":9}}`,
		`{"params":{}}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/0000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	// A request first so counters are non-trivial.
	resp := postTrack(t, ts.URL, LoadOptions{Size: 16, Seed: 1})
	resp.Body.Close()

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(m.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, family := range []string{
		"smaserve_http_requests_total",
		"smaserve_http_request_duration_seconds_bucket",
		"smaserve_admission_queue_depth",
		"smaserve_admission_queue_capacity",
		"smaserve_worker_pool_size",
		"smaserve_pairs_tracked_total",
		"smaserve_inflight_requests",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics output missing %s", family)
		}
	}
	if !strings.Contains(text, `route="/v1/track"`) {
		t.Error("metrics missing per-route label for /v1/track")
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	h := s.instrument("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var m bytes.Buffer
	if _, err := s.metrics.WriteTo(&m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "smaserve_handler_panics_total 1") {
		t.Error("panic not counted in metrics")
	}
}

// TestGracefulShutdownDrainsJobs starts a job, then shuts the server
// down with an ample deadline and asserts the job ran to completion
// rather than being killed.
func TestGracefulShutdownDrainsJobs(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view := createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 32, Seed: 4, Frames: 3},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After drain the job must have finished, not been aborted.
	got := waitForJob(t, ts.URL, view.ID, JobDone, time.Second)
	if got.Stats.PairsTracked != 2 {
		t.Fatalf("PairsTracked = %d, want 2", got.Stats.PairsTracked)
	}

	// Intake is closed: new work is refused with 503.
	resp := postTrack(t, ts.URL, LoadOptions{Size: 16, Seed: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain track status = %d, want 503", resp.StatusCode)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain readyz = %d, want 503", ready.StatusCode)
	}
}

// TestForcedShutdownAborts verifies the escalation path: a drain whose
// deadline expires cancels in-flight work through the tasks' contexts.
func TestForcedShutdownAborts(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{})
	if err := s.pool.Submit(func(ctx context.Context) {
		close(started)
		<-ctx.Done()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown err = %v, want DeadlineExceeded", err)
	}
}

func TestRunLoadAgainstLiveServer(t *testing.T) {
	_, ts := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunLoad(ctx, LoadOptions{
		URL:         ts.URL,
		Requests:    12,
		Concurrency: 8,
		Size:        24,
		Verify:      true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("load run had %d errors: %v", res.Errors, res.ErrorSample)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d responses differed from the local reference", res.Mismatches)
	}
	if res.P50 <= 0 || res.MaxLatency < res.P50 {
		t.Fatalf("implausible latency stats: p50=%v max=%v", res.P50, res.MaxLatency)
	}
}

func TestRunLoadMultiNode(t *testing.T) {
	// Two nodes round-robin: the per-node split must cover every request
	// and reconcile with the aggregate.
	_, ts1 := testServer(t, Config{})
	_, ts2 := testServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunLoad(ctx, LoadOptions{
		Nodes:       []string{ts1.URL, ts2.URL},
		Requests:    12,
		Concurrency: 4,
		Size:        24,
		Verify:      true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Errors != 0 || res.Mismatches != 0 {
		t.Fatalf("multi-node run: %d errors, %d mismatches: %v", res.Errors, res.Mismatches, res.ErrorSample)
	}
	if len(res.PerNode) != 2 {
		t.Fatalf("per-node split has %d entries, want 2", len(res.PerNode))
	}
	total := 0
	for i, nl := range res.PerNode {
		if nl.Requests != 6 {
			t.Fatalf("node %d served %d requests, want 6 (round-robin)", i, nl.Requests)
		}
		if nl.Completed != nl.Requests {
			t.Fatalf("node %d completed %d of %d", i, nl.Completed, nl.Requests)
		}
		if nl.P50Ms <= 0 || nl.MaxMs < nl.P50Ms {
			t.Fatalf("node %d implausible latency: p50=%.2fms max=%.2fms", i, nl.P50Ms, nl.MaxMs)
		}
		total += nl.Completed
	}
	if total != res.Requests {
		t.Fatalf("per-node completions sum to %d, want %d", total, res.Requests)
	}
}

func TestRunLoadRetriesBackpressureToCompletion(t *testing.T) {
	// A one-worker, depth-one queue under 8-way concurrency must push
	// clients back; the load generator retries after Retry-After, so every
	// request still completes. The retries are reported separately — they
	// must not count as rejections, which are reserved for give-ups.
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := RunLoad(ctx, LoadOptions{
		URL:         ts.URL,
		Requests:    10,
		Concurrency: 8,
		Size:        24,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("load run had %d errors: %v", res.Errors, res.ErrorSample)
	}
	if res.Rejected != 0 {
		t.Fatalf("%d requests counted rejected despite an ample deadline", res.Rejected)
	}
	if res.Retries == 0 {
		t.Fatal("saturated queue produced no backpressure retries")
	}
	// Every request reached a terminal success, so throughput accounts
	// for all of them.
	if want := float64(res.Requests) / res.ElapsedSec; res.Throughput < 0.99*want {
		t.Fatalf("throughput %.2f under-reports %d completed requests over %.2fs",
			res.Throughput, res.Requests, res.ElapsedSec)
	}
}

func TestTTLStoreEvicts(t *testing.T) {
	evicted := make(chan int, 1)
	st := NewMemStore(MemStoreConfig{TTL: 10 * time.Millisecond, OnEvict: func(n int) { evicted <- n }})
	defer st.Close()
	st.Put("a", 1)
	if _, ok := st.Get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := st.Get("a"); ok {
		t.Fatal("expired entry still visible")
	}
	select {
	case n := <-evicted:
		if n != 1 {
			t.Fatalf("evicted %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweeper never ran")
	}
}

// TestJobResultStream is the single-node half of the cluster bit-identity
// contract: a retained job's GET /v1/jobs/{id}/result stream must decode
// to motion fields byte-identical to the offline sequential tracker on
// the same synthetic pairs.
func TestJobResultStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	const frames = 4
	ref := SyntheticRef{Scene: "hurricane", Size: 32, Seed: 11, Frames: frames}
	view := createJob(t, ts.URL, JobRequest{Synthetic: &ref, Retain: true})

	// A job without retain refuses the result stream.
	plain := createJob(t, ts.URL, JobRequest{Synthetic: &ref})
	waitForJob(t, ts.URL, plain.ID, JobDone, 30*time.Second)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of non-retained job = %d, want 409", resp.StatusCode)
	}

	waitForJob(t, ts.URL, view.ID, JobDone, 30*time.Second)
	resp, err = http.Get(ts.URL + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}

	scene, err := ref.SceneOf()
	if err != nil {
		t.Fatal(err)
	}
	pr := NewPairStreamReader(resp.Body)
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
		want, err := core.TrackSequential(core.Monocular(
			scene.Frame(float64(rec.Pair)), scene.Frame(float64(rec.Pair+1))),
			core.ScaledParams(), core.Options{})
		if err != nil {
			t.Fatalf("offline track of pair %d: %v", rec.Pair, err)
		}
		var wantBuf bytes.Buffer
		if err := NewMotionField("", want).WriteBinary(&wantBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Field, wantBuf.Bytes()) {
			t.Fatalf("pair %d served field differs from offline tracker", rec.Pair)
		}
		n++
	}
	if n != frames-1 {
		t.Fatalf("result stream carried %d pairs, want %d", n, frames-1)
	}
}

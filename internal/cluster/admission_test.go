package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sma/internal/server"
)

// admissionCaps are the frame and pixel caps every role under
// TestJobAdmissionMatchesAcrossRoles runs with.
const (
	admissionMaxFrames = 8
	admissionMaxPixels = 64 * 64
)

// postJSON posts body to url and returns the status and response body.
func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(got)
}

// TestJobAdmissionMatchesAcrossRoles posts each malformed job to a
// single node and to a coordinator with the same caps and requires the
// same status and the same error body from both. Rows that are not about
// the frame count also go to a worker's shard endpoint as a one-pair
// shard, which must reject them too (the worker has no frame cap). The
// last row has two faults: both roles must name the same one.
func TestJobAdmissionMatchesAcrossRoles(t *testing.T) {
	quiet := func(string, ...any) {}
	wk := NewWorker(WorkerConfig{MaxPixels: admissionMaxPixels, Logf: quiet})
	mux := http.NewServeMux()
	mux.Handle("POST "+ShardPath, wk)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {})
	wts := httptest.NewServer(mux)
	defer wts.Close()

	co, err := New(Config{
		Workers:   []string{wts.URL},
		MaxFrames: admissionMaxFrames,
		MaxPixels: admissionMaxPixels,
		Logf:      quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co.Start(ctx)
	cts := httptest.NewServer(co.Handler())
	srv := server.New(server.Config{
		Workers:    1,
		RowWorkers: 1,
		MaxFrames:  admissionMaxFrames,
		MaxPixels:  admissionMaxPixels,
		Logf:       quiet,
	})
	sts := httptest.NewServer(srv.Handler())
	defer func() {
		cts.Close()
		sts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := co.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()

	for _, tc := range []struct {
		name   string
		body   string
		frames bool // the row is about the frame count: no shard check
	}{
		{"frames below 2", `{"synthetic":{"size":32,"frames":1}}`, true},
		{"frames above cap", `{"synthetic":{"size":32,"frames":9}}`, true},
		{"unknown scene", `{"synthetic":{"scene":"volcano","size":32,"frames":3}}`, false},
		{"size out of range", `{"synthetic":{"size":4,"frames":3}}`, false},
		{"t0 above cap", `{"synthetic":{"size":32,"t0":1000000000,"frames":3}}`, false},
		{"t0 negative", `{"synthetic":{"size":32,"t0":-1,"frames":3}}`, false},
		{"area above cap", `{"synthetic":{"size":128,"frames":3}}`, false},
		{"nzs 128", `{"synthetic":{"size":32,"frames":3},"params":{"nzs":128}}`, false},
		{"pyramid under Fsemi", `{"synthetic":{"size":32,"frames":3},"pyramid":{"levels":3}}`, false},
		{"pyramid levels 99", `{"synthetic":{"size":32,"frames":3},"params":{"nss":0},"pyramid":{"levels":99}}`, false},
		{"semi-fluid map above cap", `{"synthetic":{"size":64,"frames":3},"params":{"nzs":3}}`, false},
		{"scene and nzs", `{"synthetic":{"scene":"volcano","size":32,"frames":3},"params":{"nzs":128}}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scode, sbody := postJSON(t, sts.URL+"/v1/jobs", tc.body)
			ccode, cbody := postJSON(t, cts.URL+"/v1/jobs", tc.body)
			if scode != http.StatusBadRequest || ccode != scode || cbody != sbody {
				t.Fatalf("single node %d %q, coordinator %d %q; want the same 400", scode, sbody, ccode, cbody)
			}
			if tc.frames {
				return
			}
			var req JobRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			shard, err := json.Marshal(ShardRequest{
				JobID:     "admission",
				Synthetic: *req.Synthetic,
				Params:    req.Params,
				Robust:    req.Robust,
				Pyramid:   req.Pyramid,
				PairLo:    0,
				PairHi:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(wts.URL+ShardPath, "application/json", bytes.NewReader(shard))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("worker answered %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestShardBodyLimit: a worker decodes at most server.MaxSpecBytes of a
// shard request, like the coordinator does of a job, so a valid shard
// padded past the limit with a long job id is a 400, while the same shard
// with a short id runs.
func TestShardBodyLimit(t *testing.T) {
	wts := testWorkerNode(t)
	shard := ShardRequest{
		Synthetic: server.SyntheticRef{Scene: "hurricane", Size: 16, Seed: 3, Frames: 2},
		PairLo:    0,
		PairHi:    1,
	}
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"short", http.StatusOK},
		{strings.Repeat("x", server.MaxSpecBytes), http.StatusBadRequest},
	} {
		shard.JobID = tc.id
		body, err := json.Marshal(shard)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(wts.URL+ShardPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte shard request: status %d, want %d", len(body), resp.StatusCode, tc.want)
		}
	}
}

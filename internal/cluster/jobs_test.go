package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sma/internal/server"
)

// blockingWorkerNode is a worker stand-in whose shard endpoint holds every
// request until the coordinator gives up on it, so a job stays running
// for as long as a test needs.
func blockingWorkerNode(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+ShardPath, func(w http.ResponseWriter, r *http.Request) {
		// The server notices the coordinator hanging up only once the
		// request body has been read.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// deleteJob sends DELETE /v1/jobs/{id} and returns the status code.
func deleteJob(t *testing.T, url, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestClusterJobCancel pins the coordinator's cancel surface: DELETE on a
// running job answers 200 and the job settles cancelled, a second DELETE
// answers 409, and an unknown id answers 404.
func TestClusterJobCancel(t *testing.T) {
	_, cts := testCoordinator(t, []string{blockingWorkerNode(t).URL}, 2)
	req := JobRequest{}
	req.Synthetic = &server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 5, Frames: 5}
	view := createClusterJob(t, cts.URL, req)

	deadline := time.Now().Add(10 * time.Second)
	for {
		var v JobView
		if err := (server.JobClient{URL: cts.URL}).Get(context.Background(), "/v1/jobs/"+view.ID, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == server.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q waiting for running", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if code := deleteJob(t, cts.URL, view.ID); code != http.StatusOK {
		t.Fatalf("DELETE running job = %d, want 200", code)
	}
	done := waitClusterJob(t, cts.URL, view.ID, 15*time.Second)
	if done.Status != server.JobCancelled {
		t.Fatalf("cancelled job settled %s (%s), want cancelled", done.Status, done.Error)
	}
	if done.Finished == nil {
		t.Fatal("cancelled job has no finish time")
	}
	if code := deleteJob(t, cts.URL, view.ID); code != http.StatusConflict {
		t.Fatalf("second DELETE = %d, want 409", code)
	}
	if code := deleteJob(t, cts.URL, "0000000000000000"); code != http.StatusNotFound {
		t.Fatalf("DELETE unknown id = %d, want 404", code)
	}
}

// TestJobViewsMatchAcrossRoles runs one synthetic job on a single node
// and on a coordinator (one shard, so both run the same stream) and
// requires the same job view and job-list row from both, except for the
// ID and the timestamps.
func TestJobViewsMatchAcrossRoles(t *testing.T) {
	ref := server.SyntheticRef{Scene: "hurricane", Size: 32, Seed: 29, Frames: 4}

	_, cts := testCoordinator(t, []string{testWorkerNode(t).URL}, 8)
	creq := JobRequest{}
	creq.Synthetic = &ref
	cview := createClusterJob(t, cts.URL, creq)
	cdone := waitClusterJob(t, cts.URL, cview.ID, 60*time.Second)

	srv := server.New(server.Config{Workers: 1, RowWorkers: 1})
	sts := httptest.NewServer(srv.Handler())
	defer func() {
		sts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	}()
	screq := JobRequest{}
	screq.Synthetic = &ref
	screq.Retain = true
	sview := createClusterJob(t, sts.URL, screq)
	sdone := waitClusterJob(t, sts.URL, sview.ID, 60*time.Second)

	if cdone.Status != server.JobDone || sdone.Status != server.JobDone {
		t.Fatalf("jobs finished %s / %s, want done", cdone.Status, sdone.Status)
	}
	strip := func(v server.JobView) server.JobView {
		v.ID, v.Created, v.Started, v.Finished, v.ElapsedSec = "", time.Time{}, nil, nil, 0
		return v
	}
	cj, _ := json.Marshal(strip(cdone.JobView))
	sj, _ := json.Marshal(strip(sdone.JobView))
	if string(cj) != string(sj) {
		t.Fatalf("job views differ across roles:\ncoordinator %s\nsingle node %s", cj, sj)
	}

	row := func(url string) server.JobListEntry {
		t.Helper()
		var list server.JobListView
		if err := (server.JobClient{URL: url}).Get(context.Background(), "/v1/jobs", &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) != 1 {
			t.Fatalf("%s lists %d jobs, want 1", url, len(list.Jobs))
		}
		e := list.Jobs[0]
		e.ID, e.AgeSec = "", 0
		return e
	}
	if c, s := row(cts.URL), row(sts.URL); c != s {
		t.Fatalf("job list rows differ across roles: coordinator %+v, single node %+v", c, s)
	}
}

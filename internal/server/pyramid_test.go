package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"sma/internal/core"
)

// TestTrackPyramidBitIdentity: a /v1/track request carrying a pyramid
// spec on continuous-model params must serve exactly the field the
// pyramid driver computes locally for the same synthetic pair.
func TestTrackPyramidBitIdentity(t *testing.T) {
	_, ts := testServer(t, Config{})
	nss := 0
	req := TrackRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 48, Seed: 3},
		Params:    ParamsSpec{NZS: 3, NZT: 3, NSS: &nss},
		Pyramid:   &PyramidSpec{Levels: 2},
	}

	p, err := req.Params.Resolve(core.ScaledParams())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := req.Pyramid.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	scene, err := req.Synthetic.SceneOf()
	if err != nil {
		t.Fatal(err)
	}
	pair := core.Monocular(scene.Frame(0), scene.Frame(1))
	prep, err := core.PreparePyramid(pair, p, opt.Levels)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TrackPreparedParallelCtx(context.Background(), prep, nil, core.Options{Pyramid: opt}, 1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/track", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var field MotionField
	if err := json.NewDecoder(resp.Body).Decode(&field); err != nil {
		t.Fatalf("decoding JSON: %v", err)
	}
	flow, eps, err := field.Flow()
	if err != nil {
		t.Fatalf("reconstructing flow: %v", err)
	}
	if !flow.U.Equal(want.Flow.U) || !flow.V.Equal(want.Flow.V) || !eps.Equal(want.Err) {
		t.Fatal("served pyramid field differs from local pyramid track")
	}
}

// TestTrackPyramidRejections: a pyramid spec over the semi-fluid default
// params, or with out-of-range levels, is a 400 on /v1/track.
func TestTrackPyramidRejections(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"semifluid params", `{"synthetic":{"size":32},"pyramid":{"levels":2}}`},
		{"zero levels", `{"synthetic":{"size":32},"params":{"nss":0},"pyramid":{"levels":0}}`},
		{"too many levels", `{"synthetic":{"size":32},"params":{"nss":0},"pyramid":{"levels":99}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/track", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestJobPyramidSpec: /v1/jobs honors a valid pyramid spec end to end
// and rejects the same invalid specs /v1/track does, so the two entry
// points stay consistent.
func TestJobPyramidSpec(t *testing.T) {
	_, ts := testServer(t, Config{})
	nss := 0
	const frames = 3
	view := createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 32, Seed: 11, Frames: frames},
		Params:    ParamsSpec{NZS: 3, NZT: 3, NSS: &nss},
		Pyramid:   &PyramidSpec{Levels: 2},
	})
	done := waitForJob(t, ts.URL, view.ID, JobDone, 30*time.Second)
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("PairsTracked = %d, want %d", done.Stats.PairsTracked, frames-1)
	}

	for _, body := range []string{
		`{"synthetic":{"size":32,"frames":3},"pyramid":{"levels":2}}`,
		`{"synthetic":{"size":32,"frames":3},"params":{"nss":0},"pyramid":{"levels":0}}`,
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
}

// TestTrackPyramidRobust: robust with a pyramid spec is served, not
// refused. The Huber refinement has no window-sum form, so the field is
// the robust block kernel's, bit for bit; a job with both options
// completes every pair.
func TestTrackPyramidRobust(t *testing.T) {
	_, ts := testServer(t, Config{})
	nss := 0
	req := TrackRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 32, Seed: 5},
		Params:    ParamsSpec{NZS: 2, NZT: 2, NSS: &nss},
		Robust:    true,
		Pyramid:   &PyramidSpec{Levels: 2},
	}
	p, err := req.Params.Resolve(core.ScaledParams())
	if err != nil {
		t.Fatal(err)
	}
	scene, err := req.Synthetic.SceneOf()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := core.Prepare(core.Monocular(scene.Frame(0), scene.Frame(1)), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.TrackPreparedParallelCtx(context.Background(), prep, nil, core.Options{Robust: true}, 1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/track", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var field MotionField
	if err := json.NewDecoder(resp.Body).Decode(&field); err != nil {
		t.Fatalf("decoding JSON: %v", err)
	}
	flow, eps, err := field.Flow()
	if err != nil {
		t.Fatalf("reconstructing flow: %v", err)
	}
	if !flow.U.Equal(want.Flow.U) || !flow.V.Equal(want.Flow.V) || !eps.Equal(want.Err) {
		t.Fatal("served robust pyramid field differs from the robust block kernel")
	}

	const frames = 3
	view := createJob(t, ts.URL, JobRequest{
		Synthetic: &SyntheticRef{Scene: "hurricane", Size: 32, Seed: 5, Frames: frames},
		Params:    req.Params,
		Robust:    true,
		Pyramid:   &PyramidSpec{Levels: 2},
	})
	done := waitForJob(t, ts.URL, view.ID, JobDone, 30*time.Second)
	if done.Stats.PairsTracked != frames-1 {
		t.Fatalf("PairsTracked = %d, want %d", done.Stats.PairsTracked, frames-1)
	}
}

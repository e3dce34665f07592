package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"sma/internal/core"
)

// TestSemiMapAdmission: a semi-fluid request whose map, W·H·hyps·2 bytes,
// exceeds what MaxPixels frames take at ScaledParams is a 400 on every
// smaserve route — JSON tracks, uploads and jobs — before any map is
// built, while a request at the cap is served.
func TestSemiMapAdmission(t *testing.T) {
	_, ts := testServer(t, Config{MaxPixels: 32 * 32})
	post := func(path, contentType string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// NZS 3: 49 hypotheses, 32·32·49·2 = 98 KiB > 32·32·25·2 = 50 KiB.
	if code := post("/v1/track", "application/json", []byte(`{"synthetic":{"size":32},"params":{"nzs":3}}`)); code != http.StatusBadRequest {
		t.Errorf("JSON track over the map cap: %d, want 400", code)
	}
	if code := post("/v1/jobs", "application/json", []byte(`{"synthetic":{"size":32,"frames":3},"params":{"nzs":3}}`)); code != http.StatusBadRequest {
		t.Errorf("job over the map cap: %d, want 400", code)
	}
	body, contentType, _, err := BuildTrackRequest(LoadOptions{Size: 32, Params: ParamsSpec{NZS: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if code := post("/v1/track", contentType, body); code != http.StatusBadRequest {
		t.Errorf("upload over the map cap: %d, want 400", code)
	}
	// NZS 2 is ScaledParams' own window: exactly at the cap.
	if code := post("/v1/track", "application/json", []byte(`{"synthetic":{"size":32},"params":{"nzs":2}}`)); code != http.StatusOK {
		t.Errorf("JSON track at the map cap: %d, want 200", code)
	}
}

// TestAdmissionSemiMapBound checks the bound at the default caps without
// building anything: Table 1's Frederic configuration at 512² (85 MiB of
// map) is admitted, and NZS 127 at 1024² (~127 GiB) is not.
func TestAdmissionSemiMapBound(t *testing.T) {
	lim := Limits{MaxFrames: DefaultMaxFrames, MaxPixels: DefaultMaxPixels}
	fred := core.FredericParams()
	nss := fred.NSS
	spec := Spec{
		Synthetic: &SyntheticRef{Size: 512},
		Frames:    2,
		Params:    ParamsSpec{NS: fred.NS, NZS: fred.NZS, NZT: fred.NZT, NST: fred.NST, NSS: &nss},
	}
	a, err := Admit(spec, lim)
	if err != nil {
		t.Fatalf("Frederic at 512²: %v", err)
	}
	if a.Params != fred {
		t.Fatalf("Frederic resolved to %+v, want %+v", a.Params, fred)
	}
	spec = Spec{Synthetic: &SyntheticRef{Size: 1024}, Frames: 2, Params: ParamsSpec{NZS: 127}}
	if _, err := Admit(spec, lim); err == nil || !strings.Contains(err.Error(), "semi-fluid map") {
		t.Fatalf("NZS 127 at 1024²: %v, want the semi-fluid map cap", err)
	}
	// The continuous model builds no map: the same window is admitted.
	zero := 0
	spec.Params.NSS = &zero
	if _, err := Admit(spec, lim); err != nil {
		t.Fatalf("NZS 127 at 1024² under Fcont: %v", err)
	}
}

// FuzzAdmission: Admit never panics; whatever it accepts validates and
// fits the caps, its first frame index included; and a job's verdict on the frame-capped roles (smaserve,
// coordinator) matches the verdict on a worker, which admits a shard of
// it without the frame cap — the same error, or the same resolved
// parameters and options.
func FuzzAdmission(f *testing.F) {
	f.Add("", 32, 0, 3, 0, 0, 0, 0, -1, 0, false, 8, 4096)
	f.Add("volcano", 32, 0, 3, 0, 128, 0, 0, -1, 0, false, 8, 4096)
	f.Add("thunderstorm", 64, 5, 9, 2, 7, 7, 2, 0, 3, true, 0, 0)
	f.Add("shear", 64, 0, 2, 0, 3, 0, 0, 1, 0, false, 8, 4096)
	f.Add("", 1024, 0, 2, 0, 127, 0, 0, -1, 0, false, 0, 0)
	f.Add("", 32, 1000000000, 3, 0, 0, 0, 0, -1, 0, false, 8, 4096)
	f.Add("", 32, -1, 3, 0, 0, 0, 0, -1, 0, false, 8, 4096)
	f.Fuzz(func(t *testing.T, scene string, size, t0, frames, ns, nzs, nzt, nst, nss, levels int, robust bool, maxFrames, maxPixels int) {
		// A role's caps are positive once its config takes its defaults.
		lim := Limits{MaxFrames: maxFrames, MaxPixels: maxPixels}
		if lim.MaxFrames <= 0 {
			lim.MaxFrames = DefaultMaxFrames
		}
		if lim.MaxPixels <= 0 {
			lim.MaxPixels = DefaultMaxPixels
		}
		ref := &SyntheticRef{Scene: scene, Size: size, T0: t0, Frames: frames}
		spec := Spec{
			Synthetic: ref,
			Frames:    frames,
			Params:    ParamsSpec{NS: ns, NZS: nzs, NZT: nzt, NST: nst},
			Robust:    robust,
		}
		if nss >= 0 {
			spec.Params.NSS = &nss
		}
		if levels != 0 {
			spec.Pyramid = &PyramidSpec{Levels: levels}
		}
		job, jobErr := Admit(spec, lim)
		shardSpec := spec
		shardSpec.Frames = 2
		shard, shardErr := Admit(shardSpec, Limits{MaxPixels: lim.MaxPixels})

		framesOK := frames >= 2 && frames <= lim.MaxFrames
		switch {
		case !framesOK && jobErr == nil:
			t.Fatalf("admitted %d frames under cap %d", frames, lim.MaxFrames)
		case !framesOK:
			return
		case (jobErr == nil) != (shardErr == nil):
			t.Fatalf("roles disagree: job %v, shard %v", jobErr, shardErr)
		case jobErr != nil:
			if jobErr.Error() != shardErr.Error() {
				t.Fatalf("roles name different faults: job %q, shard %q", jobErr, shardErr)
			}
			return
		case job.Params != shard.Params || job.Options != shard.Options:
			t.Fatalf("roles resolve differently: job %+v %+v, shard %+v %+v", job.Params, job.Options, shard.Params, shard.Options)
		}
		if err := job.Params.Validate(); err != nil {
			t.Fatalf("admitted invalid params %+v: %v", job.Params, err)
		}
		if err := job.Options.Pyramid.Check(job.Params); err != nil {
			t.Fatalf("admitted an invalid search mode: %v", err)
		}
		if t0 < 0 || t0 > DefaultMaxFrames {
			t.Fatalf("admitted first frame index %d outside [0, %d]", t0, DefaultMaxFrames)
		}
		px := job.Scene.W * job.Scene.H
		if px > lim.MaxPixels {
			t.Fatalf("admitted %d px under cap %d", px, lim.MaxPixels)
		}
		if job.Params.SemiFluid() {
			semi := int64(px) * int64(job.Params.Hypotheses()) * 2
			if limit := int64(lim.MaxPixels) * int64(core.ScaledParams().Hypotheses()) * 2; semi > limit {
				t.Fatalf("admitted a %d-byte semi-fluid map under cap %d", semi, limit)
			}
		}
	})
}

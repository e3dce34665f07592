package server

import (
	"errors"
	"fmt"

	"sma/internal/core"
	"sma/internal/stream"
	"sma/internal/synth"
)

// MaxSpecBytes caps the JSON body of a cluster job or shard spec, on the
// coordinator's POST /v1/jobs and on a worker's shard endpoint. (A
// single node caps every body at Config.MaxBodyBytes instead.)
const MaxSpecBytes = 1 << 20

// Limits are the caps a serving role admits specs under.
type Limits struct {
	// MaxFrames caps a job's sequence length; 0 leaves it uncapped (a
	// track is one pair, and a shard is cut from an admitted job).
	MaxFrames int
	// MaxPixels caps the frame area, and through it the semi-fluid map:
	// a spec may ask for at most the map MaxPixels frames take at the
	// serving default, W·H·hyps·2 ≤ MaxPixels·ScaledParams().Hypotheses()·2
	// bytes (200 MiB at the default cap).
	MaxPixels int
}

// The caps a role's zero config takes.
const (
	DefaultMaxFrames = 512
	DefaultMaxPixels = 1 << 22
)

// Spec is what a track, job or shard request asks the tracker to run.
type Spec struct {
	// Synthetic names the server-rendered frames; nil for uploads.
	Synthetic *SyntheticRef
	// Width and Height are the uploaded frames' size (Synthetic nil).
	Width, Height int
	// Frames is how many frames the run consumes (2 for a track).
	Frames  int
	Params  ParamsSpec
	Pyramid *PyramidSpec
	Robust  bool
}

// Admitted is a spec that passed admission, resolved for the tracker.
type Admitted struct {
	Scene   *synth.Scene // the synthetic scene; nil for uploads
	Params  core.Params
	Options core.Options
}

// Admit is the one admission every serving role runs — smaserve's track
// and job endpoints, the coordinator, the worker's shard endpoint and
// crash recovery — so a spec gets the same verdict and the same error
// wherever it is posted. It checks, in this order: the frame source and
// count, the synthetic scene and size, the synthetic first frame index
// (T0 in [0, DefaultMaxFrames]), the frame area, the parameters (zero
// fields take core.ScaledParams), the search mode, and the semi-fluid
// map's size.
func Admit(spec Spec, lim Limits) (Admitted, error) {
	var a Admitted
	if spec.Synthetic == nil && spec.Width <= 0 {
		return a, errors.New("jobs need a synthetic dataset reference")
	}
	if spec.Frames < 2 {
		return a, fmt.Errorf("need at least 2 frames, got %d", spec.Frames)
	}
	if lim.MaxFrames > 0 && spec.Frames > lim.MaxFrames {
		return a, fmt.Errorf("%d frames exceeds the serving cap %d", spec.Frames, lim.MaxFrames)
	}
	w, h := spec.Width, spec.Height
	if spec.Synthetic != nil {
		scene, err := spec.Synthetic.SceneOf()
		if err != nil {
			return a, err
		}
		// Rendering frame t integrates each pixel's trajectory over |t|
		// time units, so the first frame index is capped like the count.
		if t0 := spec.Synthetic.T0; t0 < 0 || t0 > DefaultMaxFrames {
			return a, fmt.Errorf("first frame index t0 = %d out of range [0, %d]", t0, DefaultMaxFrames)
		}
		a.Scene = scene
		w, h = scene.W, scene.H
	}
	if px := w * h; px > lim.MaxPixels {
		return a, fmt.Errorf("frame area %d px exceeds the serving cap %d", px, lim.MaxPixels)
	}
	p, err := spec.Params.resolve()
	if err != nil {
		return a, err
	}
	pyr, err := spec.Pyramid.resolve(p)
	if err != nil {
		return a, err
	}
	if p.SemiFluid() {
		semi := int64(w) * int64(h) * int64(p.Hypotheses()) * 2
		if limit := int64(lim.MaxPixels) * int64(core.ScaledParams().Hypotheses()) * 2; semi > limit {
			return a, fmt.Errorf("semi-fluid map of %d bytes (%d hypotheses per pixel) exceeds the serving cap %d", semi, p.Hypotheses(), limit)
		}
	}
	a.Params = p
	a.Options = core.Options{Robust: spec.Robust, Pyramid: pyr}
	return a, nil
}

// Source renders n frames of the admitted scene from frame index t0,
// lazily, so whole sequences never sit in memory.
func (a Admitted) Source(t0, n int) stream.Source {
	return stream.Func(n, func(i int) (core.Frame, error) {
		return core.MonocularFrame(a.Scene.Frame(float64(t0 + i))), nil
	})
}

// Spec is the admission spec of a whole job: all Synthetic.Frames frames.
func (req *JobRequest) Spec() Spec {
	s := Spec{Synthetic: req.Synthetic, Params: req.Params, Pyramid: req.Pyramid, Robust: req.Robust}
	if req.Synthetic != nil {
		s.Frames = req.Synthetic.Frames
	}
	return s
}

// SyntheticRef names a server-rendered dataset: a synthetic scene from
// internal/synth, so clients (and the load generator) can exercise the
// full tracking path without shipping imagery.
type SyntheticRef struct {
	Scene  string `json:"scene"`            // hurricane | thunderstorm | shear
	Size   int    `json:"size"`             // square edge, default 64
	Seed   int64  `json:"seed"`             // scene seed
	T0     int    `json:"t0,omitempty"`     // first frame index (track)
	Frames int    `json:"frames,omitempty"` // sequence length (jobs)
}

// SceneOf materializes the referenced scene.
func (ref SyntheticRef) SceneOf() (*synth.Scene, error) {
	size := ref.Size
	if size == 0 {
		size = 64
	}
	if size < 8 || size > 1024 {
		return nil, fmt.Errorf("server: synthetic size %d out of range [8, 1024]", size)
	}
	switch ref.Scene {
	case "", "hurricane":
		return synth.Hurricane(size, size, ref.Seed), nil
	case "thunderstorm":
		return synth.Thunderstorm(size, size, ref.Seed), nil
	case "shear":
		return synth.ShearScene(size, size, ref.Seed), nil
	}
	return nil, fmt.Errorf("server: unknown synthetic scene %q (want hurricane, thunderstorm or shear)", ref.Scene)
}

// ParamsSpec is the wire form of core.Params; zero fields take the
// serving defaults (core.ScaledParams).
type ParamsSpec struct {
	NS  int  `json:"ns,omitempty"`
	NZS int  `json:"nzs,omitempty"`
	NZT int  `json:"nzt,omitempty"`
	NST int  `json:"nst,omitempty"`
	NSS *int `json:"nss,omitempty"` // pointer: 0 (continuous model) is meaningful
}

// resolve merges the spec over the serving defaults and validates.
func (s ParamsSpec) resolve() (core.Params, error) {
	p := core.ScaledParams()
	if s.NS > 0 {
		p.NS = s.NS
	}
	if s.NZS > 0 {
		p.NZS = s.NZS
	}
	if s.NZT > 0 {
		p.NZT = s.NZT
	}
	if s.NST > 0 {
		p.NST = s.NST
	}
	if s.NSS != nil {
		p.NSS = *s.NSS
	}
	return p, p.Validate()
}

// PyramidSpec is the wire form of core.PyramidOptions: Levels > 1 selects
// the summed-window exhaustive search of /v1/track and /v1/jobs requests
// (docs/PERFORMANCE.md §9). Levels <= 1 (or an absent spec) keeps the
// default block kernel, bit-identical to the reference.
type PyramidSpec struct {
	Levels int `json:"levels"`
}

// maxPyramidLevels bounds the levels a request may ask for; the value
// beyond selecting the search changes nothing, this only rejects
// nonsense.
const maxPyramidLevels = 16

// resolve validates the spec against the resolved params and returns the
// tracker options. A nil spec resolves to the disabled zero value.
func (s *PyramidSpec) resolve(p core.Params) (core.PyramidOptions, error) {
	if s == nil {
		return core.PyramidOptions{}, nil
	}
	if s.Levels < 1 || s.Levels > maxPyramidLevels {
		return core.PyramidOptions{}, fmt.Errorf("server: pyramid levels %d out of range [1, %d]", s.Levels, maxPyramidLevels)
	}
	po := core.PyramidOptions{Levels: s.Levels}
	if err := po.Check(p); err != nil {
		return core.PyramidOptions{}, fmt.Errorf("server: %w", err)
	}
	return po, nil
}

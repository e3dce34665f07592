package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sma/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden motion-field fixtures under testdata/")

// goldenCases are the committed bit-exact regressions: small scenes, one
// per model family, tracked by the sequential baseline — or, with the
// pyramid option, by the summed-window search (goldenTrack). Any change
// to these bytes is a change to the numerics of the tracker — the
// golden files make that an explicit, reviewable event (`go test
// ./internal/core -run Golden -update`) instead of a silent drift.
var goldenCases = []struct {
	name  string
	scene func() *synth.Scene
	p     Params
	opt   Options
}{
	{
		name:  "hurricane", // semi-fluid model, SemiMap path
		scene: func() *synth.Scene { return synth.Hurricane(24, 24, 61) },
		p:     Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1},
	},
	{
		name:  "thunderstorm", // continuous model Fcont
		scene: func() *synth.Scene { return synth.Thunderstorm(24, 24, 9) },
		p:     Params{NS: 2, NZS: 2, NZT: 3},
	},
	{
		name:  "hurricane_robust", // Huber-reweighted solve
		scene: func() *synth.Scene { return synth.Hurricane(24, 24, 17) },
		p:     Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1},
		opt:   Options{Robust: true},
	},
	{
		// Summed-window search: 40² spans a full 32² summed block and
		// the narrow edge blocks beside and below it. The oracle test
		// shares aPlaneValues, summedA, invertMotion and summedEps with
		// the kernel, so only a fixture sees a change inside them.
		name:  "thunderstorm_summed",
		scene: func() *synth.Scene { return synth.Thunderstorm(40, 40, 23) },
		p:     Params{NS: 2, NZS: 2, NZT: 3},
		opt:   Options{Pyramid: PyramidOptions{Levels: 2}, KeepMotion: true},
	},
}

// goldenTrack tracks a golden scene: the sequential baseline, or the
// pyramid option's summed-window search on two workers.
func goldenTrack(pair Pair, p Params, opt Options) (*Result, error) {
	if !opt.Pyramid.Enabled() {
		return TrackSequential(pair, p, opt)
	}
	prep, err := PreparePyramid(pair, p, opt.Pyramid.Levels)
	if err != nil {
		return nil, err
	}
	res, _, err := TrackPyramidPreparedCtx(context.Background(), prep, opt, 2)
	return res, err
}

// goldenMagic versions the fixture layout: magic, GOARCH tag, dimensions,
// then U, V and ε rasters — and, for a KeepMotion case, the six motion
// rasters — as little-endian float32.
const goldenMagic = "SMAGOLD1"

func encodeGolden(res *Result) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(goldenMagic)
	arch := runtime.GOARCH
	if err := binary.Write(&buf, binary.LittleEndian, uint32(len(arch))); err != nil {
		return nil, err
	}
	buf.WriteString(arch)
	w, h := res.Flow.Bounds()
	if err := binary.Write(&buf, binary.LittleEndian, [2]uint32{uint32(w), uint32(h)}); err != nil {
		return nil, err
	}
	rasters := [][]float32{res.Flow.U.Data, res.Flow.V.Data, res.Err.Data}
	for _, g := range res.Motion {
		rasters = append(rasters, g.Data)
	}
	for _, g := range rasters {
		if err := binary.Write(&buf, binary.LittleEndian, g); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// goldenArch extracts the GOARCH tag a fixture was generated on.
func goldenArch(data []byte) (string, error) {
	if len(data) < len(goldenMagic)+4 || string(data[:len(goldenMagic)]) != goldenMagic {
		return "", fmt.Errorf("bad golden header")
	}
	n := binary.LittleEndian.Uint32(data[len(goldenMagic):])
	off := len(goldenMagic) + 4
	if int(n) > len(data)-off {
		return "", fmt.Errorf("truncated golden header")
	}
	return string(data[off : off+int(n)]), nil
}

// TestGoldenMotionFields locks the tracker's numerics to committed
// fixtures, bit for bit. Future performance PRs (SIMD kernels, caching,
// reordering) must reproduce these bytes exactly or regenerate them with
// -update and justify the change.
func TestGoldenMotionFields(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			scene := tc.scene()
			pair := Monocular(scene.Frame(0), scene.Frame(1))
			res, err := goldenTrack(pair, tc.p, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeGolden(res)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden_"+tc.name+".bin")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			arch, err := goldenArch(want)
			if err != nil {
				t.Fatal(err)
			}
			if arch != runtime.GOARCH {
				// Go may contract floating-point expressions (FMA) on some
				// architectures, so bit-exactness only holds within one.
				t.Skipf("fixture generated on %s, running on %s", arch, runtime.GOARCH)
			}
			if !bytes.Equal(got, want) {
				off := 0
				for off < len(got) && off < len(want) && got[off] == want[off] {
					off++
				}
				t.Fatalf("golden %s differs from committed fixture (lengths %d vs %d, first difference at byte %d): the tracker's numerics changed",
					tc.name, len(got), len(want), off)
			}
		})
	}
}

// TestGoldenStreamMatchesFixture closes the loop between the golden
// fixtures and the streaming refactor: the per-frame Prepare split must
// reproduce the committed pairwise bytes exactly.
func TestGoldenStreamMatchesFixture(t *testing.T) {
	tc := goldenCases[0]
	scene := tc.scene()
	f0 := MonocularFrame(scene.Frame(0))
	f1 := MonocularFrame(scene.Frame(1))
	p0, err := PrepareFrame(f0, tc.p)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := PrepareFrame(f1, tc.p)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := AssemblePair(p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	res := TrackPrepared(prep, BuildSemiMap(prep), tc.opt)
	got, err := encodeGolden(res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_"+tc.name+".bin")
	want, err := os.ReadFile(path)
	if err != nil {
		if *updateGolden {
			t.Skip("fixtures being regenerated")
		}
		t.Fatal(err)
	}
	if arch, err := goldenArch(want); err != nil {
		t.Fatal(err)
	} else if arch != runtime.GOARCH {
		t.Skipf("fixture generated on %s, running on %s", arch, runtime.GOARCH)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("per-frame Prepare split diverges from the committed pairwise fixture")
	}
}

package core

import (
	"strings"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

// TestPrepareFrameMatchesFusedPrepare verifies the refactor that enables
// streaming: preparing each frame separately and assembling the pair is
// field-for-field bit-identical to the fused pair-level Prepare, for the
// monocular, stereo and multispectral input shapes.
func TestPrepareFrameMatchesFusedPrepare(t *testing.T) {
	s := synth.Hurricane(18, 18, 31)
	i0, i1 := s.Frame(0), s.Frame(1)
	z0, z1 := s.Height(i0), s.Height(i1)
	extra0 := i0.GaussianBlur(1)
	extra1 := i1.GaussianBlur(1)

	cases := []struct {
		name string
		pair Pair
		p    Params
	}{
		{"monocular_semifluid", Monocular(i0, i1), Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}},
		{"monocular_continuous", Monocular(i0, i1), Params{NS: 2, NZS: 2, NZT: 3}},
		{"stereo", Pair{I0: i0, I1: i1, Z0: z0, Z1: z1}, Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}},
		{"distinct_nst", Monocular(i0, i1), Params{NS: 2, NZS: 2, NZT: 3, NST: 1, NSS: 1}},
		{"multispectral", Pair{I0: i0, I1: i1, Z0: z0, Z1: z1,
			Extra: []Channel{{I0: extra0, I1: extra1}}}, Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fused, err := Prepare(tc.pair, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			f0, f1 := tc.pair.Frames()
			p0, err := PrepareFrame(f0, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			p1, err := PrepareFrame(f1, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			split, err := AssemblePair(p0, p1)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range []struct {
				name      string
				got, want *grid.Grid
				optional  bool
			}{
				{"G0.D", split.G0.D, fused.G0.D, false},
				{"G1.D", split.G1.D, fused.G1.D, false},
				{"G0.Zx", split.G0.Zx, fused.G0.Zx, false},
				{"G1.Zy", split.G1.Zy, fused.G1.Zy, false},
				{"G0.E", split.G0.E, fused.G0.E, false},
				{"G1.G", split.G1.G, fused.G1.G, false},
				{"D0", split.D0, fused.D0, true},
				{"D1", split.D1, fused.D1, true},
			} {
				if g.optional && g.got == nil && g.want == nil {
					continue
				}
				if g.got == nil || g.want == nil {
					t.Fatalf("%s: nil mismatch (split %v, fused %v)", g.name, g.got == nil, g.want == nil)
				}
				if !g.got.Equal(g.want) {
					t.Fatalf("%s differs between split and fused preparation", g.name)
				}
			}
			if len(split.Extra) != len(fused.Extra) {
				t.Fatalf("extra channels: %d vs %d", len(split.Extra), len(fused.Extra))
			}
			for i := range split.Extra {
				if !split.Extra[i].D0.Equal(fused.Extra[i].D0) || !split.Extra[i].D1.Equal(fused.Extra[i].D1) {
					t.Fatalf("extra channel %d discriminants differ", i)
				}
			}
			// The split path must also produce bit-identical tracking.
			sm := BuildSemiMap(split)
			got := TrackPrepared(split, sm, Options{})
			want, err := TrackSequential(tc.pair, tc.p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Flow.Equal(want.Flow) || !got.Err.Equal(want.Err) {
				t.Fatal("tracking on split-prepared geometry differs from TrackSequential")
			}
		})
	}
}

// TestPrepareFrameSharesDiscriminant pins the monocular aliasing rule: the
// intensity discriminant is the surface fit's discriminant when the same
// grid serves both roles and NST == NS — one fit pass, not two.
func TestPrepareFrameSharesDiscriminant(t *testing.T) {
	s := synth.Hurricane(16, 16, 3)
	f0, f1 := s.Frame(0), s.Frame(1)
	f := MonocularFrame(f0)
	p := Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}
	fp, err := PrepareFrame(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if fp.D != fp.G.D {
		t.Fatal("monocular frame with NST == NS did not share the surface discriminant")
	}
	if got, want := FitPasses(Monocular(f0, f1), p), 2; got != want {
		t.Fatalf("FitPasses = %d, want %d", got, want)
	}
	// Distinct NST forces a second fit pass and a distinct field.
	p2 := p
	p2.NST = 1
	fp2, err := PrepareFrame(f, p2)
	if err != nil {
		t.Fatal(err)
	}
	if fp2.D == fp2.G.D {
		t.Fatal("NST != NS still shared the surface discriminant")
	}
	if got, want := FitPasses(Monocular(f0, f1), p2), 4; got != want {
		t.Fatalf("FitPasses = %d, want %d", got, want)
	}
	// Continuous model computes no discriminant at all.
	p3 := Params{NS: 2, NZS: 2, NZT: 3}
	fp3, err := PrepareFrame(f, p3)
	if err != nil {
		t.Fatal(err)
	}
	if fp3.D != nil {
		t.Fatal("continuous model produced a discriminant field")
	}
}

func TestAssemblePairValidation(t *testing.T) {
	s := synth.Hurricane(16, 16, 7)
	p := Params{NS: 2, NZS: 2, NZT: 3, NST: 2, NSS: 1}
	a, err := PrepareFrame(MonocularFrame(s.Frame(0)), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssemblePair(a, nil); err == nil {
		t.Fatal("nil frame preparation accepted")
	}
	p2 := p
	p2.NZS = 3
	b, err := PrepareFrame(MonocularFrame(s.Frame(1)), p2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssemblePair(a, b); err == nil || !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("parameter mismatch not rejected: %v", err)
	}
	small, err := PrepareFrame(MonocularFrame(grid.New(8, 8)), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssemblePair(a, small); err == nil || !strings.Contains(err.Error(), "sizes") {
		t.Fatalf("size mismatch not rejected: %v", err)
	}
	withExtra, err := PrepareFrame(Frame{I: s.Frame(1), Z: s.Frame(1),
		Extra: []*grid.Grid{s.Frame(1)}}, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssemblePair(a, withExtra); err == nil || !strings.Contains(err.Error(), "channel") {
		t.Fatalf("extra-channel mismatch not rejected: %v", err)
	}
}

func TestFrameValidate(t *testing.T) {
	g := grid.New(8, 8)
	if err := (Frame{}).Validate(); err == nil {
		t.Fatal("nil intensity accepted")
	}
	if err := (Frame{I: g, Z: grid.New(4, 4)}).Validate(); err == nil {
		t.Fatal("mismatched surface accepted")
	}
	if err := (Frame{I: g, Extra: []*grid.Grid{nil}}).Validate(); err == nil {
		t.Fatal("nil extra channel accepted")
	}
	if err := (Frame{I: g, Extra: []*grid.Grid{grid.New(4, 4)}}).Validate(); err == nil {
		t.Fatal("mismatched extra channel accepted")
	}
	if err := (Frame{I: g}).Validate(); err != nil {
		t.Fatalf("monocular frame rejected: %v", err)
	}
	if (Frame{I: g}).Surface() != g {
		t.Fatal("nil Z did not fall back to I")
	}
	if _, err := PrepareFrame(Frame{}, Params{NS: 2, NZS: 2, NZT: 3}); err == nil {
		t.Fatal("PrepareFrame accepted an invalid frame")
	}
	if _, err := PrepareFrame(MonocularFrame(g), Params{}); err == nil {
		t.Fatal("PrepareFrame accepted invalid params")
	}
}

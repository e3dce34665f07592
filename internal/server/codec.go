package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sma/internal/core"
	"sma/internal/grid"
	"sma/internal/ingest"
	"sma/internal/synth"
)

// DecodeImage decodes an uploaded frame, sniffing the format: PGM (P5/P2
// magic) or McIDAS AREA (version word 4 in either byte order) — the two
// formats the offline CLIs already speak.
func DecodeImage(data []byte) (*grid.Grid, error) {
	if len(data) >= 2 && data[0] == 'P' && (data[1] == '5' || data[1] == '2') {
		return grid.ReadPGM(bytes.NewReader(data))
	}
	if len(data) >= 8 {
		le := int32(binary.LittleEndian.Uint32(data[4:8]))
		be := int32(binary.BigEndian.Uint32(data[4:8]))
		if le == 4 || be == 4 {
			_, g, err := ingest.ReadArea(bytes.NewReader(data))
			return g, err
		}
	}
	return nil, fmt.Errorf("server: unrecognized image format (want PGM or McIDAS AREA)")
}

// MotionField is the JSON wire form of a tracked pair: row-major float32
// U/V displacement components and the per-pixel residual ε. Values decode
// bit-identically — encoding/json renders float32 at 32-bit precision.
type MotionField struct {
	ID            string    `json:"id"`
	Width         int       `json:"width"`
	Height        int       `json:"height"`
	MeanMagnitude float64   `json:"mean_magnitude_px"`
	U             []float32 `json:"u"`
	V             []float32 `json:"v"`
	Eps           []float32 `json:"eps"`
}

// NewMotionField flattens a tracking result for the wire.
func NewMotionField(id string, res *core.Result) MotionField {
	return MotionField{
		ID:            id,
		Width:         res.Flow.U.W,
		Height:        res.Flow.U.H,
		MeanMagnitude: res.Flow.MeanMagnitude(),
		U:             res.Flow.U.Data,
		V:             res.Flow.V.Data,
		Eps:           res.Err.Data,
	}
}

// Binary motion-field framing: "SMF1" magic, then width and height as
// little-endian uint32, then the U, V and ε planes as row-major
// little-endian float32 — byte-for-byte the tracker's output, so clients
// can assert bit-identity against a local run.
var binaryMagic = [4]byte{'S', 'M', 'F', '1'}

// binaryChunk bounds WriteBinary's encode buffer, so encoding a field
// allocates at most this many bytes whatever its size.
const binaryChunk = 16 << 10

// WriteBinary encodes the motion field in the binary framing through one
// buffer of at most binaryChunk bytes, filled with the header and then
// the planes' samples and flushed to w whenever it is full.
func (f MotionField) WriteBinary(w io.Writer) error {
	n := 12 + 4*(len(f.U)+len(f.V)+len(f.Eps))
	buf := make([]byte, 0, min(n, binaryChunk))
	buf = append(buf, binaryMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Width))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Height))
	for _, plane := range [][]float32{f.U, f.V, f.Eps} {
		for _, v := range plane {
			if len(buf)+4 > cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinaryMotionField decodes the binary framing (the client half
// smaload and the eval harness verify bit-identity with).
func ReadBinaryMotionField(r io.Reader) (MotionField, error) {
	var f MotionField
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return f, fmt.Errorf("server: binary motion field: %w", err)
	}
	if magic != binaryMagic {
		return f, fmt.Errorf("server: bad motion-field magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return f, fmt.Errorf("server: binary motion field header: %w", err)
	}
	f.Width = int(binary.LittleEndian.Uint32(hdr[0:]))
	f.Height = int(binary.LittleEndian.Uint32(hdr[4:]))
	if f.Width <= 0 || f.Height <= 0 || f.Width > 1<<15 || f.Height > 1<<15 {
		return f, fmt.Errorf("server: implausible motion-field size %dx%d", f.Width, f.Height)
	}
	n := f.Width * f.Height
	for _, plane := range []*[]float32{&f.U, &f.V, &f.Eps} {
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return f, fmt.Errorf("server: truncated motion-field plane: %w", err)
		}
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		*plane = vals
	}
	return f, nil
}

// Flow reconstructs the VectorField and residual grid from the wire form.
func (f MotionField) Flow() (*grid.VectorField, *grid.Grid, error) {
	n := f.Width * f.Height
	if f.Width <= 0 || f.Height <= 0 || len(f.U) != n || len(f.V) != n || len(f.Eps) != n {
		return nil, nil, fmt.Errorf("server: inconsistent motion field %dx%d with %d/%d/%d samples",
			f.Width, f.Height, len(f.U), len(f.V), len(f.Eps))
	}
	vf := &grid.VectorField{
		U: grid.FromSlice(f.Width, f.Height, f.U),
		V: grid.FromSlice(f.Width, f.Height, f.V),
	}
	return vf, grid.FromSlice(f.Width, f.Height, f.Eps), nil
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

// Scene materializes the referenced scene.
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

// Resolve merges the spec over the defaults and validates.
func (s ParamsSpec) Resolve(def core.Params) (core.Params, error) {
	p := def
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
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// PyramidSpec is the wire form of core.PyramidOptions: Levels > 1 selects
// the summed-window exhaustive search of /v1/track and /v1/jobs requests
// (docs/PERFORMANCE.md §9). Levels <= 1 (or an absent spec) keeps the
// default block kernel, bit-identical to the reference. Both serving
// roles — single node and cluster coordinator/worker — resolve the spec
// through the same code so it is honored or rejected consistently.
type PyramidSpec struct {
	Levels int `json:"levels"`
}

// maxPyramidLevels bounds the levels a request may ask for; the value
// beyond selecting the search changes nothing, this only rejects
// nonsense.
const maxPyramidLevels = 16

// Resolve validates the spec against the resolved params and returns the
// tracker options. A nil spec resolves to the disabled zero value.
func (s *PyramidSpec) Resolve(p core.Params) (core.PyramidOptions, error) {
	if s == nil {
		return core.PyramidOptions{}, nil
	}
	if s.Levels < 1 || s.Levels > maxPyramidLevels {
		return core.PyramidOptions{}, fmt.Errorf("server: pyramid levels %d out of range [1, %d]", s.Levels, maxPyramidLevels)
	}
	if s.Levels > 1 && p.SemiFluid() {
		return core.PyramidOptions{}, fmt.Errorf("server: pyramid search requires the continuous model (nss = 0)")
	}
	return core.PyramidOptions{Levels: s.Levels}, nil
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}

package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// smf1Reference is the SMF1 layout spelled out field by field: magic,
// little-endian width and height, then the U, V and ε planes.
func smf1Reference(f MotionField) []byte {
	var b bytes.Buffer
	b.WriteString("SMF1")
	for _, v := range []uint32{uint32(f.Width), uint32(f.Height)} {
		_ = binary.Write(&b, binary.LittleEndian, v) // bytes.Buffer writes cannot fail
	}
	for _, plane := range [][]float32{f.U, f.V, f.Eps} {
		for _, v := range plane {
			_ = binary.Write(&b, binary.LittleEndian, math.Float32bits(v))
		}
	}
	return b.Bytes()
}

// TestWriteBinaryLayout pins WriteBinary's bytes to the SMF1 layout for
// fields smaller than, equal to and several times the encode buffer, and
// checks the decoder reads every sample back bit for bit.
func TestWriteBinaryLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {64, 64}, {93, 71}} {
		w, h := dims[0], dims[1]
		f := MotionField{Width: w, Height: h,
			U: make([]float32, w*h), V: make([]float32, w*h), Eps: make([]float32, w*h)}
		for i := range f.U {
			f.U[i] = rng.Float32()*8 - 4
			f.V[i] = float32(math.NaN())
			f.Eps[i] = -rng.Float32()
		}
		var buf bytes.Buffer
		if err := f.WriteBinary(&buf); err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if !bytes.Equal(buf.Bytes(), smf1Reference(f)) {
			t.Fatalf("%dx%d: WriteBinary bytes differ from the SMF1 layout", w, h)
		}
		got, err := ReadBinaryMotionField(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%dx%d: decoding: %v", w, h, err)
		}
		if !bytes.Equal(smf1Reference(got), buf.Bytes()) {
			t.Fatalf("%dx%d: decoded field re-encodes differently", w, h)
		}
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		return 0, errSink
	}
	f.n -= len(p)
	return len(p), nil
}

// TestWriteBinaryPropagatesWriteErrors: a failing writer's error reaches
// the caller whether it fails on the first chunk or a later one.
func TestWriteBinaryPropagatesWriteErrors(t *testing.T) {
	const side = 80 // 12 + 3·4·80² bytes: several encode chunks
	f := MotionField{Width: side, Height: side,
		U: make([]float32, side*side), V: make([]float32, side*side), Eps: make([]float32, side*side)}
	for _, n := range []int{0, binaryChunk, 3 * binaryChunk} {
		if err := f.WriteBinary(&failAfter{n: n}); !errors.Is(err, errSink) {
			t.Fatalf("sink failing after %d bytes: err = %v, want %v", n, err, errSink)
		}
	}
}

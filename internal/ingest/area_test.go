package ingest

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"sma/internal/grid"
	"sma/internal/synth"
)

func TestAreaRoundTrip8Bit(t *testing.T) {
	g := synth.Hurricane(32, 24, 3).Frame(0)
	var buf bytes.Buffer
	dir := Directory{SensorID: 70, Date: 79255, Time: 170000, ByteDepth: 1}
	if err := WriteArea(&buf, dir, g); err != nil {
		t.Fatal(err)
	}
	back, bg, err := ReadArea(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.SensorID != 70 || back.Date != 79255 || back.Time != 170000 {
		t.Fatalf("directory metadata lost: %+v", back)
	}
	if bg.W != 32 || bg.H != 24 {
		t.Fatalf("dims %dx%d", bg.W, bg.H)
	}
	// Quantization to 8 bits: after normalizing both, within one count.
	if d := quantizationError(g, bg, 255); d > 1.0 {
		t.Fatalf("8-bit round trip max diff %v counts", d)
	}
}

func TestAreaRoundTrip16Bit(t *testing.T) {
	g := synth.Thunderstorm(16, 16, 5).Frame(0)
	var buf bytes.Buffer
	if err := WriteArea(&buf, Directory{ByteDepth: 2}, g); err != nil {
		t.Fatal(err)
	}
	_, bg, err := ReadArea(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := quantizationError(g, bg, 65535); d > 1.0 {
		t.Fatalf("16-bit round trip max diff %v counts", d)
	}
}

func TestAreaBigEndianDetection(t *testing.T) {
	// Write a little-endian file, then byte-swap every directory word and
	// 16-bit sample to emulate a big-endian producer.
	g := grid.New(4, 3)
	g.ApplyXY(func(x, y int, _ float32) float32 { return float32(x + 10*y) })
	var buf bytes.Buffer
	if err := WriteArea(&buf, Directory{ByteDepth: 2}, g); err != nil {
		t.Fatal(err)
	}
	le := buf.Bytes()
	be := make([]byte, len(le))
	for i := 0; i < 64*4; i += 4 { // directory words
		be[i], be[i+1], be[i+2], be[i+3] = le[i+3], le[i+2], le[i+1], le[i]
	}
	for i := 64 * 4; i < len(le); i += 2 { // 16-bit samples
		be[i], be[i+1] = le[i+1], le[i]
	}
	_, bg, err := ReadArea(bytes.NewReader(be))
	if err != nil {
		t.Fatal(err)
	}
	_, lg, err := ReadArea(bytes.NewReader(le))
	if err != nil {
		t.Fatal(err)
	}
	if !bg.Equal(lg) {
		t.Fatal("big-endian decode differs from little-endian")
	}
}

func TestAreaRejectsGarbage(t *testing.T) {
	if _, _, err := ReadArea(bytes.NewReader(make([]byte, 10))); err == nil {
		t.Fatal("short file accepted")
	}
	junk := make([]byte, 64*4)
	for i := range junk {
		junk[i] = 0xAB
	}
	if _, _, err := ReadArea(bytes.NewReader(junk)); err == nil {
		t.Fatal("garbage version word accepted")
	}
}

func TestAreaRejectsTruncatedData(t *testing.T) {
	g := grid.New(8, 8)
	var buf bytes.Buffer
	if err := WriteArea(&buf, Directory{ByteDepth: 1}, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-20]
	if _, _, err := ReadArea(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated data accepted")
	}
}

// opaqueReader hides the size of the underlying input (no Len, no Seek),
// forcing ReadArea onto its incremental-allocation path.
type opaqueReader struct{ r io.Reader }

func (o opaqueReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestAreaCorruptDirectoryCapsAllocation(t *testing.T) {
	// A directory claiming 32768×32768×2 bytes (2 GiB) on a tiny input
	// must fail before committing storage for the claimed size.
	var words [64]int32
	words[1] = 4
	words[8] = 1 << 15 // lines
	words[9] = 1 << 15 // elements
	words[10] = 2
	words[33] = 64 * 4
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, words[:]); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 64)) // a sliver of "data"
	raw := buf.Bytes()

	// Sized reader: rejected up front by the remaining-input cap.
	if _, _, err := ReadArea(bytes.NewReader(raw)); err == nil {
		t.Fatal("huge directory on sized reader accepted")
	} else if !strings.Contains(err.Error(), "remain in the input") {
		t.Fatalf("want remaining-input cap error, got: %v", err)
	}

	// Opaque stream: rejected at the first short row, with allocations
	// bounded by the bytes actually supplied rather than the claimed size.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, _, err := ReadArea(opaqueReader{bytes.NewReader(raw)}); err == nil {
		t.Fatal("huge directory on opaque reader accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("decoding a corrupt directory allocated %d bytes", grew)
	}
}

func TestAreaOpaqueReaderStillDecodes(t *testing.T) {
	g := synth.Hurricane(16, 12, 9).Frame(0)
	var buf bytes.Buffer
	if err := WriteArea(&buf, Directory{ByteDepth: 1}, g); err != nil {
		t.Fatal(err)
	}
	sized, sg, err := ReadArea(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	opaque, og, err := ReadArea(opaqueReader{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if sized != opaque || !sg.Equal(og) {
		t.Fatal("opaque-reader decode differs from sized-reader decode")
	}
}

func TestAreaValidate(t *testing.T) {
	if err := (Directory{Lines: 4, Elements: 4, ByteDepth: 3}).Validate(); err == nil {
		t.Fatal("byte depth 3 accepted")
	}
	if err := (Directory{Lines: 0, Elements: 4, ByteDepth: 1}).Validate(); err == nil {
		t.Fatal("zero lines accepted")
	}
}

func TestAreaNavBlockSkip(t *testing.T) {
	// Hand-build a file with a nav block between directory and data.
	g := grid.New(2, 2)
	copy(g.Data, []float32{0, 85, 170, 255})
	var words [64]int32
	words[1] = 4
	words[8] = 2
	words[9] = 2
	words[10] = 1
	words[33] = 64*4 + 128 // 128-byte nav block
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, words[:]); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 128))       // nav block
	buf.Write([]byte{0, 85, 170, 255}) // data
	_, bg, err := ReadArea(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 85, 170, 255}
	for i, w := range want {
		if bg.Data[i] != w {
			t.Fatalf("sample %d = %v, want %v", i, bg.Data[i], w)
		}
	}
}

func TestAreaFileRoundTrip(t *testing.T) {
	g := synth.ShearScene(16, 16, 7).Frame(0)
	path := t.TempDir() + "/test.area"
	if err := WriteAreaFile(path, Directory{SensorID: 180}, g); err != nil {
		t.Fatal(err)
	}
	d, bg, err := ReadAreaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.SensorID != 180 || bg.W != 16 {
		t.Fatalf("file round trip: %+v %dx%d", d, bg.W, bg.H)
	}
}

// quantizationError returns the largest difference between g rescaled
// linearly onto [0, full] and the decoded samples.
func quantizationError(g, decoded *grid.Grid, full float32) float64 {
	min, max := g.MinMax()
	scale := full / (max - min)
	var worst float64
	for i, v := range g.Data {
		worst = math.Max(worst, math.Abs(float64((v-min)*scale-decoded.Data[i])))
	}
	return worst
}

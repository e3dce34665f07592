package ingest

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"sma/internal/grid"
	"sma/internal/stream"
)

// TestAreaTruncationClassified cuts a valid AREA document at byte
// offsets in every section (directory, data) and checks each failure wraps ErrTruncated — and stays retry-classifiable,
// since a truncated read is exactly the "file still arriving" case the
// stream retry policy exists for.
func TestAreaTruncationClassified(t *testing.T) {
	g := grid.New(6, 5)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	var buf bytes.Buffer
	if err := WriteArea(&buf, Directory{SensorID: 70, ByteDepth: 1}, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, off := range []int64{10, dirWords*4 - 1, dirWords*4 + 7, int64(len(full)) - 1} {
		// io.LimitReader hides the size, forcing the incremental path.
		r := io.LimitReader(bytes.NewReader(full), off)
		_, _, err := ReadArea(r)
		if err == nil {
			t.Fatalf("offset %d: truncated document accepted", off)
		}
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("offset %d: error %v does not wrap ErrTruncated", off, err)
		}
		if !stream.Transient(err) {
			t.Errorf("offset %d: error %v not classified transient", off, err)
		}
	}
	// The untruncated document still decodes.
	if _, _, err := ReadArea(bytes.NewReader(full)); err != nil {
		t.Fatalf("clean document: %v", err)
	}
}

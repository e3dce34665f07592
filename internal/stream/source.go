package stream

import (
	"fmt"
	"io"

	"sma/internal/core"
	"sma/internal/grid"
)

// Grids returns a monocular Source over an intensity sequence, each image
// standing in for its own surface (the paper's monocular mode) — the
// adapter internal/sequence feeds the pipeline with. Errors carry no
// frame index of their own: the pipeline attaches it (exactly once) as a
// *FrameError.
func Grids(frames []*grid.Grid) Source {
	return Func(len(frames), func(i int) (core.Frame, error) {
		if frames[i] == nil {
			return core.Frame{}, fmt.Errorf("nil frame")
		}
		return core.MonocularFrame(frames[i]), nil
	})
}

// Func returns a Source of n frames rendered lazily by render(i) — the
// adapter for synthetic scenes (internal/synth) and any other generator
// that can materialize frame i on demand. A failed render does not
// advance the cursor, so a retry re-renders the same frame; the source
// implements Skipper, so a SkipPolicy can step past a frame whose render
// keeps failing.
func Func(n int, render func(i int) (core.Frame, error)) Source {
	return &funcSource{n: n, render: render}
}

type funcSource struct {
	n, i   int
	render func(int) (core.Frame, error)
}

func (s *funcSource) Next() (core.Frame, error) {
	if s.i >= s.n {
		return core.Frame{}, io.EOF
	}
	f, err := s.render(s.i)
	if err != nil {
		return core.Frame{}, err
	}
	s.i++
	return f, nil
}

// SkipFrame steps past the frame whose render last failed (see Skipper).
func (s *funcSource) SkipFrame() {
	if s.i < s.n {
		s.i++
	}
}

// Paths returns a monocular Source reading one image file per frame via
// read (e.g. grid.ReadPGMFile, or an ingest.ReadAreaFile wrapper) — the
// adapter cmd/smatrack's stream mode feeds PGM/AREA sequences with. Files
// are read lazily, one frame ahead of tracking, so whole sequences never
// sit in memory.
func Paths(paths []string, read func(path string) (*grid.Grid, error)) Source {
	return Func(len(paths), func(i int) (core.Frame, error) {
		g, err := read(paths[i])
		if err != nil {
			return core.Frame{}, fmt.Errorf("stream: %s: %w", paths[i], err)
		}
		return core.MonocularFrame(g), nil
	})
}

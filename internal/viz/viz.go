// Package viz renders motion fields and imagery as self-contained SVG
// documents — the repository's analog of the paper's wind-vector figures
// (Figs. 5 and 6: cloud imagery overlaid with motion vectors and barbs).
// Only the standard library is used; output is valid SVG 1.1.
package viz

import (
	"fmt"
	"io"
	"math"
	"os"

	"sma/internal/grid"
)

// QuiverOptions controls SVG quiver rendering.
type QuiverOptions struct {
	// Step is the sampling stride in pixels (default 8).
	Step int
	// Scale multiplies displacements for display (default 6).
	Scale float64
	// CellSize is the SVG size of one image pixel (default 4).
	CellSize float64
	// Background optionally renders the intensity image under the vectors.
	Background *grid.Grid
	// BackgroundLevels, when set, is a background already quantized by
	// GrayLevels — one level per field pixel, row-major — and is drawn in
	// place of Background, with the same bytes.
	BackgroundLevels []byte
	// MinMagnitude suppresses arrows below this displacement (default 0.25).
	MinMagnitude float64
}

// WriteQuiverSVG renders the field as arrows over an optional grayscale
// background image.
func WriteQuiverSVG(w io.Writer, f *grid.VectorField, opt QuiverOptions) error {
	if opt.Step < 1 {
		opt.Step = 8
	}
	if opt.Scale == 0 {
		opt.Scale = 6
	}
	if opt.CellSize == 0 {
		opt.CellSize = 4
	}
	if opt.MinMagnitude == 0 {
		opt.MinMagnitude = 0.25
	}
	fw, fh := f.Bounds()
	W := float64(fw) * opt.CellSize
	H := float64(fh) * opt.CellSize
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		W, H, W, H); err != nil {
		return err
	}
	if opt.BackgroundLevels != nil {
		if err := writeLevels(w, opt.BackgroundLevels, fw, fh, opt.CellSize); err != nil {
			return err
		}
	} else if opt.Background != nil {
		if err := writeBackground(w, opt.Background, opt.CellSize); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, `<rect width="%.0f" height="%.0f" fill="#10151c"/>`+"\n", W, H); err != nil {
			return err
		}
	}
	for y := opt.Step / 2; y < fh; y += opt.Step {
		for x := opt.Step / 2; x < fw; x += opt.Step {
			u, v := f.At(x, y)
			mag := math.Hypot(float64(u), float64(v))
			if mag < opt.MinMagnitude {
				continue
			}
			x0 := (float64(x) + 0.5) * opt.CellSize
			y0 := (float64(y) + 0.5) * opt.CellSize
			x1 := x0 + float64(u)*opt.Scale
			y1 := y0 + float64(v)*opt.Scale
			// Arrowhead: two short strokes at ±150° from the shaft.
			ang := math.Atan2(y1-y0, x1-x0)
			hl := math.Min(4, 1.5+mag)
			ax := x1 - hl*math.Cos(ang-0.5)
			ay := y1 - hl*math.Sin(ang-0.5)
			bx := x1 - hl*math.Cos(ang+0.5)
			by := y1 - hl*math.Sin(ang+0.5)
			if _, err := fmt.Fprintf(w,
				`<path d="M%.1f %.1fL%.1f %.1fM%.1f %.1fL%.1f %.1fL%.1f %.1f" stroke="#ffb52e" stroke-width="1.2" fill="none"/>`+"\n",
				x0, y0, x1, y1, ax, ay, x1, y1, bx, by); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "</svg>\n")
	return err
}

// writeBackground emits the intensity image as rows of grayscale rects,
// merging horizontal runs of equal quantized intensity to keep the SVG
// compact.
func writeBackground(w io.Writer, g *grid.Grid, cell float64) error {
	return writeLevels(w, GrayLevels(g), g.W, g.H, cell)
}

// writeLevels emits a w×h image of GrayLevels levels as writeBackground
// describes.
func writeLevels(out io.Writer, levels []byte, w, h int, cell float64) error {
	if len(levels) != w*h {
		return fmt.Errorf("viz: %d background levels for a %dx%d field", len(levels), w, h)
	}
	for y := 0; y < h; y++ {
		row := levels[y*w:][:w]
		x := 0
		for x < w {
			run := 1
			for x+run < w && row[x+run] == row[x] {
				run++
			}
			q := row[x] * 17
			if _, err := fmt.Fprintf(out,
				`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#%02x%02x%02x"/>`+"\n",
				float64(x)*cell, float64(y)*cell, float64(run)*cell, cell, q, q, q); err != nil {
				return err
			}
			x += run
		}
	}
	return nil
}

// GrayLevels quantizes g into the 16 gray levels (0…15, one byte per
// pixel, row-major) a background is drawn with, linearly between g's
// finite extremes.
func GrayLevels(g *grid.Grid) []byte {
	min, max := g.MinMax()
	span := max - min
	if span == 0 {
		span = 1
	}
	levels := make([]byte, len(g.Data))
	for i, v := range g.Data {
		levels[i] = quant(v, min, span)
	}
	return levels
}

// quant maps an intensity to one of 16 gray levels.
func quant(v, min, span float32) byte {
	q := int((v - min) / span * 15)
	if q < 0 {
		q = 0
	} else if q > 15 {
		q = 15
	}
	return byte(q)
}

// WriteQuiverSVGFile writes the rendering to a file.
func WriteQuiverSVGFile(path string, f *grid.VectorField, opt QuiverOptions) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteQuiverSVG(fh, f, opt); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// WriteTrajectorySVG renders particle paths (from sequence.Trajectories)
// over an optional background — the wind-barb/tracer view of Figure 5.
// Each path is a polyline with a dot at the seed.
func WriteTrajectorySVG(w io.Writer, imgW, imgH int, paths [][2][]float64, bg *grid.Grid, cell float64) error {
	if cell == 0 {
		cell = 4
	}
	W := float64(imgW) * cell
	H := float64(imgH) * cell
	if _, err := fmt.Fprintf(w,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		W, H, W, H); err != nil {
		return err
	}
	if bg != nil {
		if err := writeBackground(w, bg, cell); err != nil {
			return err
		}
	}
	for _, p := range paths {
		xs, ys := p[0], p[1]
		if len(xs) == 0 || len(xs) != len(ys) {
			return fmt.Errorf("viz: malformed trajectory")
		}
		if _, err := fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="#2ec4ff"/>`+"\n",
			(xs[0]+0.5)*cell, (ys[0]+0.5)*cell); err != nil {
			return err
		}
		pts := ""
		for i := range xs {
			pts += fmt.Sprintf("%.1f,%.1f ", (xs[i]+0.5)*cell, (ys[i]+0.5)*cell)
		}
		if _, err := fmt.Fprintf(w,
			`<polyline points="%s" stroke="#2ec4ff" stroke-width="1.4" fill="none"/>`+"\n", pts); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</svg>\n")
	return err
}

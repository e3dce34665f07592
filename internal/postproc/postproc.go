// Package postproc implements the motion-field post-processing the
// paper's §6 proposes as future work: relaxation labeling over the
// discrete correspondence labels and confidence-weighted regularization,
// alongside the simple median filtering grid.VectorField already offers.
package postproc

import (
	"fmt"
	"math"

	"sma/internal/grid"
)

// RelaxConfig parameterizes discrete relaxation labeling.
type RelaxConfig struct {
	// Iterations of label updating.
	Iterations int
	// Lambda weighs the data term (brightness-constancy residual)
	// against neighbor support.
	Lambda float64
}

// DefaultRelaxConfig returns a moderate smoothing setup.
func DefaultRelaxConfig() RelaxConfig { return RelaxConfig{Iterations: 3, Lambda: 0.02} }

// Relax performs discrete relaxation labeling on an integer motion field:
// every pixel reconsiders its label among the labels currently held by
// its 8-neighborhood (plus its own), choosing the one minimizing
//
//	λ · (I1(x+u, y+v) − I0(x, y))² − (neighbors voting for the label)
//
// — a data-consistency term plus contextual support, iterated to
// convergence or the configured bound. Labels never leave the set present
// in the neighborhood, so the search window's guarantees are preserved.
func Relax(flow *grid.VectorField, i0, i1 *grid.Grid, cfg RelaxConfig) (*grid.VectorField, error) {
	w, h := flow.Bounds()
	if i0.W != w || i0.H != h || i1.W != w || i1.H != h {
		return nil, fmt.Errorf("postproc: image sizes do not match the flow field")
	}
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("postproc: need at least one iteration")
	}
	cur := flow.Clone()
	for it := 0; it < cfg.Iterations; it++ {
		next := grid.NewVectorField(w, h)
		changed := false
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				type label struct{ u, v float32 }
				votes := make(map[label]int, 9)
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						u, v := cur.At(x+dx, y+dy)
						votes[label{u, v}]++
					}
				}
				ownU, ownV := cur.At(x, y)
				bestU, bestV := ownU, ownV
				bestCost := math.Inf(1)
				for l, support := range votes {
					d := float64(i1.Bilinear(float64(x)+float64(l.u), float64(y)+float64(l.v)) - i0.At(x, y))
					cost := cfg.Lambda*d*d - float64(support)
					// Deterministic tie-break: prefer the current label,
					// then smaller (u, v) lexicographically.
					if cost < bestCost || (cost == bestCost && lessLabel(l.u, l.v, bestU, bestV, ownU, ownV)) {
						bestCost = cost
						bestU, bestV = l.u, l.v
					}
				}
				if bestU != ownU || bestV != ownV {
					changed = true
				}
				next.Set(x, y, bestU, bestV)
			}
		}
		cur = next
		if !changed {
			break
		}
	}
	return cur, nil
}

// lessLabel orders candidate labels deterministically: the pixel's own
// label wins ties, then lexicographic (u, v).
func lessLabel(u, v, curU, curV, ownU, ownV float32) bool {
	if curU == ownU && curV == ownV {
		return false
	}
	if u == ownU && v == ownV {
		return true
	}
	if u != curU {
		return u < curU
	}
	return v < curV
}

// ConfidenceSmooth regularizes a motion field by confidence-weighted
// local averaging: each pixel's flow becomes the 3×3 average weighted by
// 1/(ε + ε₀), so low-residual (high-confidence) estimates dominate their
// uncertain neighbors — the "regularization" item of §6.
func ConfidenceSmooth(flow *grid.VectorField, eps *grid.Grid, radius int) (*grid.VectorField, error) {
	w, h := flow.Bounds()
	if eps.W != w || eps.H != h {
		return nil, fmt.Errorf("postproc: ε field size does not match the flow")
	}
	if radius < 1 {
		return nil, fmt.Errorf("postproc: radius must be positive")
	}
	// ε₀: a small fraction of the mean residual keeps weights finite.
	em := float32(eps.Mean())
	eps0 := em*0.01 + 1e-9
	out := grid.NewVectorField(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var su, sv, sw float64
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					u, v := flow.At(x+dx, y+dy)
					wt := 1 / float64(eps.At(x+dx, y+dy)+eps0)
					su += wt * float64(u)
					sv += wt * float64(v)
					sw += wt
				}
			}
			out.Set(x, y, float32(su/sw), float32(sv/sw))
		}
	}
	return out, nil
}

// VectorMedian filters the field with a true vector median: each pixel's
// displacement becomes the neighborhood vector minimizing the summed
// Euclidean distance to all (2r+1)² neighborhood vectors. Unlike the
// componentwise median it always outputs a vector that occurs in the
// neighborhood, so discrete correspondence labels are preserved.
//
//smavet:allow deadexport -- staged deletion with the three TestVectorMedian tests (ROADMAP item 9)
func VectorMedian(flow *grid.VectorField, radius int) (*grid.VectorField, error) {
	if radius < 1 {
		return nil, fmt.Errorf("postproc: radius must be positive")
	}
	w, h := flow.Bounds()
	out := grid.NewVectorField(w, h)
	side := 2*radius + 1
	us := make([]float64, 0, side*side)
	vs := make([]float64, 0, side*side)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			us = us[:0]
			vs = vs[:0]
			for dy := -radius; dy <= radius; dy++ {
				for dx := -radius; dx <= radius; dx++ {
					u, v := flow.At(x+dx, y+dy)
					us = append(us, float64(u))
					vs = append(vs, float64(v))
				}
			}
			bi := 0
			best := math.Inf(1)
			for i := range us {
				var s float64
				for j := range us {
					s += math.Hypot(us[i]-us[j], vs[i]-vs[j])
				}
				if s < best {
					best = s
					bi = i
				}
			}
			out.Set(x, y, float32(us[bi]), float32(vs[bi]))
		}
	}
	return out, nil
}

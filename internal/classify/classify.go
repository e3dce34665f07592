// Package classify provides the cloud classification the paper's §6
// proposes for motion-field post-processing: separating cloudy from clear
// pixels (so wind vectors are only reported over clouds, as Figure 6
// does: "over cloudy regions") and splitting cloudy pixels into height
// layers, the structure the semi-fluid model exploits for multi-layer
// decks.
package classify

import (
	"fmt"
	"math"

	"sma/internal/grid"
)

// CloudMask thresholds an intensity image into cloudy (bright) and clear
// pixels using Otsu's criterion on a 256-bin histogram.
func CloudMask(img *grid.Grid) []bool {
	min, max := img.MinMax()
	span := max - min
	if span == 0 {
		return make([]bool, len(img.Data))
	}
	var hist [256]int
	for _, v := range img.Data {
		b := int((v - min) / span * 255)
		hist[b]++
	}
	t := otsu(hist[:], len(img.Data))
	thresh := min + float32(t)/255*span
	mask := make([]bool, len(img.Data))
	for i, v := range img.Data {
		mask[i] = v > thresh
	}
	return mask
}

// otsu returns the bin index maximizing between-class variance.
func otsu(hist []int, total int) int {
	var sum float64
	for i, c := range hist {
		sum += float64(i) * float64(c)
	}
	var sumB, wB float64
	best := 0
	bestVar := -1.0
	for t, c := range hist {
		wB += float64(c)
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(c)
		mB := sumB / wB
		mF := (sum - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			best = t
		}
	}
	return best
}

// Layers clusters the heights of masked (cloudy) pixels into k layers by
// 1-D k-means and returns a per-pixel layer index (−1 for clear pixels)
// and the sorted layer-mean heights (layer 0 is the lowest).
//
//smavet:allow deadexport -- DESIGN.md §6 extension: cloud height layering
func Layers(z *grid.Grid, mask []bool, k int) ([]int, []float64, error) {
	if k < 1 {
		return nil, nil, fmt.Errorf("classify: k = %d, need >= 1", k)
	}
	if len(mask) != len(z.Data) {
		return nil, nil, fmt.Errorf("classify: mask length %d != %d pixels", len(mask), len(z.Data))
	}
	var vals []float64
	for i, v := range z.Data {
		if mask[i] {
			vals = append(vals, float64(v))
		}
	}
	labels := make([]int, len(z.Data))
	for i := range labels {
		labels[i] = -1
	}
	if len(vals) == 0 {
		return labels, nil, nil
	}
	if len(vals) < k {
		k = len(vals)
	}
	// Initialize centers at evenly spaced quantiles of the value range.
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	centers := make([]float64, k)
	for i := range centers {
		centers[i] = lo + (hi-lo)*(float64(i)+0.5)/float64(k)
	}
	assign := make([]int, len(vals))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, v := range vals {
			best := 0
			bd := math.Abs(v - centers[0])
			for c := 1; c < k; c++ {
				if d := math.Abs(v - centers[c]); d < bd {
					bd = d
					best = c
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range vals {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}
	// Sort layers by height (selection sort on k entries) and remap.
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if centers[order[j]] < centers[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	rank := make([]int, k)
	sorted := make([]float64, k)
	for r, c := range order {
		rank[c] = r
		sorted[r] = centers[c]
	}
	vi := 0
	for i := range z.Data {
		if mask[i] {
			labels[i] = rank[assign[vi]]
			vi++
		}
	}
	return labels, sorted, nil
}

// MaskFlow zeroes the motion field outside the mask — the Figure 6
// presentation convention (vectors shown only over cloudy regions).
func MaskFlow(flow *grid.VectorField, mask []bool) *grid.VectorField {
	out := flow.Clone()
	for i, m := range mask {
		if !m {
			out.U.Data[i] = 0
			out.V.Data[i] = 0
		}
	}
	return out
}

package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for the tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as the tail.
const minBeyond = 10

// tailLatency returns the highest candidate percentile that has at least
// minBeyond samples beyond it, by the nearest-rank rule, and its value.
// ok is false when there are too few samples for any candidate; the
// metric is then left out of the report.
func tailLatency(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailPercentiles {
		// The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
		rank := int(math.Ceil(p/100*float64(n) - 1e-9))
		if rank < 1 || n-rank < minBeyond {
			continue
		}
		return p, s[rank-1], true
	}
	return 0, 0, false
}

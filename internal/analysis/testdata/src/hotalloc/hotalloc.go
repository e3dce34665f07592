// Package hotalloc is a smavet analyzer fixture. Lines marked
// "want-marked hotalloc" must be flagged; everything else must not.
// searchTile and bWalk are in the default kernel set; setup is not.
package hotalloc

func searchTile(n int) []float64 {
	buf := make([]float64, n) // want hotalloc
	return buf
}

func bWalk(buf []float64) []float64 {
	buf = append(buf, 1) // want hotalloc
	p := new(float64)    // want hotalloc
	_ = p
	return buf
}

func setup(n int) []float64 {
	return make([]float64, n)
}

func residualSum(buf []float64) float64 {
	var s float64
	for _, v := range buf {
		s += v
	}
	return s
}

// Package la provides the small dense linear-algebra kernels the SMA
// algorithm is built on. The paper solves two kinds of systems, both by
// Gaussian elimination:
//
//   - 6×6 normal equations from least-squares quadratic surface fitting
//     (one per pixel per image: "over one million separate
//     Gaussian-eliminations" for a 512×512 sequence pair), and
//   - 6×6 normal equations for the six local affine motion parameters
//     {ai, bi, aj, bj, ak, bk} (one per correspondence hypothesis:
//     "13×13 = 169 Gaussian-eliminations per pixel").
//
// Because the 6×6 case is the hot path, Solve6 is provided as an
// allocation-free fixed-size kernel alongside the general Matrix routines.
// The motion solve additionally factors: its matrix is identical for every
// hypothesis at a tracked pixel, so Factor6 runs the elimination once and
// SolveFactored6 replays it per right-hand side, bit-identically to Solve6.
package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when elimination encounters a pivot too close to
// zero for a reliable solution.
var ErrSingular = errors.New("la: singular matrix")

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		//smavet:allow panicfree -- constructor invariant: non-positive shape is a programmer error, like a bad make() size
		panic(fmt.Sprintf("la: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		//smavet:allow panicfree -- shape assertion on a math kernel, equivalent to the index fault it prevents
		panic(fmt.Sprintf("la: MulVec dim %d != %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m·o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		//smavet:allow panicfree -- shape assertion on a math kernel, equivalent to the index fault it prevents
		panic(fmt.Sprintf("la: Mul inner dims %d != %d", m.Cols, o.Rows))
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.Cols; j++ {
				out.Data[i*out.Cols+j] += a * o.At(k, j)
			}
		}
	}
	return out
}

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting, the method named throughout the paper. A and b are
// left unmodified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: Solve on non-square %dx%d matrix", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("la: Solve rhs dim %d != %d", len(b), a.Rows)
	}
	n := a.Rows
	// Augmented working copy.
	m := a.Clone()
	x := make([]float64, n)
	copy(x, b)
	for col := 0; col < n; col++ {
		// Partial pivot: largest |value| in this column at or below the diagonal.
		p := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best < 1e-300 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[p*n+j] = m.Data[p*n+j], m.Data[col*n+j]
			}
			x[col], x[p] = x[p], x[col]
		}
		pivot := m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) / pivot
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for j := col + 1; j < n; j++ {
				m.Data[r*n+j] -= f * m.Data[col*n+j]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min‖A·x − b‖₂ via the normal equations AᵀA·x = Aᵀb,
// the formulation the paper uses for surface fitting (a 6×6 system for the
// quadratic patch coefficients).
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("la: LeastSquares rhs dim %d != %d", len(b), a.Rows)
	}
	at := a.Transpose()
	ata := at.Mul(a)
	atb := at.MulVec(b)
	return Solve(ata, atb)
}

// Mat6 is a fixed-size 6×6 system used on the SMA hot paths; Solve6 runs
// Gaussian elimination with partial pivoting without heap allocation.
type Mat6 [6][6]float64

// Vec6 is the companion fixed-size vector type.
type Vec6 [6]float64

// Solve6 solves A·x = b in place (A and b are clobbered) and returns x.
// ok is false when the system is singular to working precision.
func Solve6(a *Mat6, b *Vec6) (x Vec6, ok bool) {
	for col := 0; col < 6; col++ {
		p := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < 6; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-12 {
			return x, false
		}
		if p != col {
			a[col], a[p] = a[p], a[col]
			b[col], b[p] = b[p], b[col]
		}
		pivot := a[col][col]
		for r := col + 1; r < 6; r++ {
			f := a[r][col] / pivot
			if f == 0 {
				continue
			}
			a[r][col] = 0
			for j := col + 1; j < 6; j++ {
				a[r][j] -= f * a[col][j]
			}
			b[r] -= f * b[col]
		}
	}
	for i := 5; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < 6; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, true
}

// Factored6 is the partial-pivot LU factorization of a Mat6, produced by
// Factor6. LU holds U in its upper triangle (diagonal included) and the
// elimination multipliers in its strict lower triangle; Piv[col] records
// the row swapped into position col before that column was eliminated.
//
// The factorization exists so the SMA hypothesis search can eliminate the
// normal-equation matrix once per tracked pixel and re-solve it for every
// hypothesis right-hand side: the pivot choices and multipliers depend
// only on A, so SolveFactored6 replays exactly the row swaps and
// b[r] -= f·b[col] updates that Solve6 would perform — the solution is
// bit-identical to Solve6 on the same (A, b).
type Factored6 struct {
	LU  Mat6
	Piv [6]int8
}

// Factor6 eliminates A with partial pivoting and returns its factorization.
// A is left unmodified. ok is false exactly when Solve6 would report the
// system singular (pivot magnitude below the same 1e-12 threshold).
func Factor6(a *Mat6) (f Factored6, ok bool) {
	lu := *a
	for col := 0; col < 6; col++ {
		p := col
		best := math.Abs(lu[col][col])
		for r := col + 1; r < 6; r++ {
			if v := math.Abs(lu[r][col]); v > best {
				best, p = v, r
			}
		}
		if best < 1e-12 {
			return f, false
		}
		f.Piv[col] = int8(p)
		if p != col {
			lu[col], lu[p] = lu[p], lu[col]
		}
		pivot := lu[col][col]
		for r := col + 1; r < 6; r++ {
			m := lu[r][col] / pivot
			lu[r][col] = m // stored multiplier (Solve6 writes 0 here)
			if m == 0 {
				continue
			}
			for j := col + 1; j < 6; j++ {
				lu[r][j] -= m * lu[col][j]
			}
		}
	}
	f.LU = lu
	return f, true
}

// SolveFactored6 solves A·x = b using a factorization from Factor6. b is
// clobbered, like Solve6's. The result is bit-identical to Solve6(A, b):
// row swaps carry earlier multipliers along with their rows, so LU's
// strict lower triangle holds, per final row position, exactly the
// multipliers elimination applied to the row that ended there. Applying
// the recorded swaps first (exact) and then substituting column by column
// performs the same subtractions on the same values as Solve6's
// interleaved elimination — within a column the updates only read the
// fixed pivot entry, so their order cannot change any bit.
func SolveFactored6(f *Factored6, b *Vec6) (x Vec6) {
	for col := 0; col < 6; col++ {
		if p := int(f.Piv[col]); p != col {
			b[col], b[p] = b[p], b[col]
		}
	}
	for col := 0; col < 6; col++ {
		for r := col + 1; r < 6; r++ {
			m := f.LU[r][col]
			if m == 0 {
				continue
			}
			b[r] -= m * b[col]
		}
	}
	for i := 5; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < 6; j++ {
			s -= f.LU[i][j] * x[j]
		}
		x[i] = s / f.LU[i][i]
	}
	return x
}

// BatchLanes is the lane width of the batched substitution kernel: the
// SMA tracker scores up to BatchLanes correspondence hypotheses per
// batch and solves their right-hand sides together, in
// structure-of-arrays form so the per-component inner loops run over a
// contiguous [BatchLanes]float64 stripe.
const BatchLanes = 8

// Vec6Lanes is a structure-of-arrays bundle of up to BatchLanes
// right-hand sides (or solutions): component i of lane l lives at [i][l].
// Lane stripes are contiguous, so lane-inner loops are stride-1 — the
// layout a vectorizing compiler wants and the one that amortizes each
// LU-element load across every lane of a batch.
type Vec6Lanes [6][BatchLanes]float64

// Vec returns lane l as a plain Vec6.
func (v *Vec6Lanes) Vec(l int) Vec6 {
	return Vec6{v[0][l], v[1][l], v[2][l], v[3][l], v[4][l], v[5][l]}
}

// SolveFactored6Lanes solves A·x = b for the first n lanes of bs against
// one factorization from Factor6, returning the solutions lane-aligned.
// bs is clobbered, like SolveFactored6's b. Lanes are fully independent:
// every lane undergoes exactly the row swaps, forward updates and back
// substitutions SolveFactored6 would apply to it alone — the multipliers
// and pivots depend only on A — so each returned lane is bit-identical
// to SolveFactored6(f, lane). Batching only amortizes the factorization
// loads (each LU element is read once per batch instead of once per
// hypothesis) and exposes stride-1 lane loops.
func SolveFactored6Lanes(f *Factored6, bs *Vec6Lanes, n int) (xs Vec6Lanes) {
	for col := 0; col < 6; col++ {
		if p := int(f.Piv[col]); p != col {
			for l := 0; l < n; l++ {
				bs[col][l], bs[p][l] = bs[p][l], bs[col][l]
			}
		}
	}
	for col := 0; col < 6; col++ {
		for r := col + 1; r < 6; r++ {
			m := f.LU[r][col]
			if m == 0 {
				continue
			}
			for l := 0; l < n; l++ {
				bs[r][l] -= m * bs[col][l]
			}
		}
	}
	for i := 5; i >= 0; i-- {
		d := f.LU[i][i]
		for l := 0; l < n; l++ {
			s := bs[i][l]
			for j := i + 1; j < 6; j++ {
				s -= f.LU[i][j] * xs[j][l]
			}
			xs[i][l] = s / d
		}
	}
	return xs
}

// AccumulateNormal adds the rank-1 least-squares contribution of one
// observation row to the normal equations: A += w·rowᵀrow, b += w·rhs·row.
// This is how both surface fitting and the motion-parameter solve build
// their 6×6 systems incrementally per neighborhood pixel.
func AccumulateNormal(a *Mat6, b *Vec6, row *Vec6, rhs, w float64) {
	for i := 0; i < 6; i++ {
		ri := w * row[i]
		if ri == 0 {
			continue
		}
		for j := 0; j < 6; j++ {
			a[i][j] += ri * row[j]
		}
		b[i] += ri * rhs
	}
}

// Cholesky6 solves A·x = b for a symmetric positive-definite 6×6 system
// by Cholesky factorization — the numerically natural method for the
// normal equations both SMA solves produce. About half the flops of
// Gaussian elimination; the paper's implementation used elimination, so
// the trackers default to Solve6, with Cholesky6 available as a drop-in
// (see BenchmarkSolvers). ok is false if A is not positive definite to
// working precision.
func Cholesky6(a *Mat6, b *Vec6) (x Vec6, ok bool) {
	// Factor A = L·Lᵀ in place (lower triangle).
	var l Mat6
	for j := 0; j < 6; j++ {
		d := a[j][j]
		for k := 0; k < j; k++ {
			d -= l[j][k] * l[j][k]
		}
		if d <= 1e-14 {
			return x, false
		}
		l[j][j] = math.Sqrt(d)
		for i := j + 1; i < 6; i++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			l[i][j] = s / l[j][j]
		}
	}
	// Forward substitution L·y = b.
	var y Vec6
	for i := 0; i < 6; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * y[k]
		}
		y[i] = s / l[i][i]
	}
	// Back substitution Lᵀ·x = y.
	for i := 5; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < 6; k++ {
			s -= l[k][i] * x[k]
		}
		x[i] = s / l[i][i]
	}
	return x, true
}

package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	a := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{4, 5, 6}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular system did not error")
	}
}

func TestSolveLeavesInputsUntouched(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 3)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	orig := a.Clone()
	b := []float64{1, 2}
	if _, err := Solve(a, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Solve modified A")
		}
	}
	if b[0] != 1 || b[1] != 2 {
		t.Fatal("Solve modified b")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	sq := NewMatrix(2, 2)
	if _, err := Solve(sq, []float64{1}); err == nil {
		t.Fatal("wrong rhs length accepted")
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Fit y = 2 + 3x through exact samples; residual must vanish.
	a := NewMatrix(4, 2)
	b := make([]float64, 4)
	for i := 0; i < 4; i++ {
		x := float64(i)
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	c, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c[0]-2) > 1e-10 || math.Abs(c[1]-3) > 1e-10 {
		t.Fatalf("coeffs = %v, want [2 3]", c)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noise-free quadratic through 9 points recovered exactly.
	a := NewMatrix(9, 3)
	b := make([]float64, 9)
	i := 0
	for x := -1.0; x <= 1.0; x += 0.25 {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		a.Set(i, 2, x*x)
		b[i] = 0.5 - 1.5*x + 2.25*x*x
		i++
	}
	c, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, -1.5, 2.25}
	for k := range want {
		if math.Abs(c[k]-want[k]) > 1e-9 {
			t.Fatalf("c[%d] = %v, want %v", k, c[k], want[k])
		}
	}
}

func TestMatrixMulTransposeAgainstHand(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 {
		t.Fatalf("transpose wrong: %+v", at)
	}
	p := a.Mul(at) // 2x2: [[14, 32], [32, 77]]
	want := []float64{14, 32, 32, 77}
	for i, v := range want {
		if p.Data[i] != v {
			t.Fatalf("Mul Data[%d] = %v, want %v", i, p.Data[i], v)
		}
	}
}

func TestMulVecDimPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec dim mismatch did not panic")
		}
	}()
	NewMatrix(2, 2).MulVec([]float64{1})
}

func TestSolve6Known(t *testing.T) {
	// Diagonal-dominant system with known solution x = (1..6).
	var a Mat6
	var b Vec6
	want := Vec6{1, 2, 3, 4, 5, 6}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a[i][j] = rng.Float64() - 0.5
		}
		a[i][i] += 10
	}
	for i := 0; i < 6; i++ {
		var s float64
		for j := 0; j < 6; j++ {
			s += a[i][j] * want[j]
		}
		b[i] = s
	}
	x, ok := Solve6(&a, &b)
	if !ok {
		t.Fatal("Solve6 reported singular")
	}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolve6Singular(t *testing.T) {
	var a Mat6 // all zeros
	var b Vec6
	if _, ok := Solve6(&a, &b); ok {
		t.Fatal("Solve6 accepted an all-zero matrix")
	}
}

func TestSolve6MatchesGeneralSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		var a6 Mat6
		var b6 Vec6
		am := NewMatrix(6, 6)
		bm := make([]float64, 6)
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				v := rng.NormFloat64()
				a6[i][j] = v
				am.Set(i, j, v)
			}
			a6[i][i] += 4
			am.Set(i, i, am.At(i, i)+4)
			b6[i] = rng.NormFloat64()
			bm[i] = b6[i]
		}
		x6, ok := Solve6(&a6, &b6)
		if !ok {
			t.Fatalf("trial %d: Solve6 singular", trial)
		}
		xm, err := Solve(am, bm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < 6; i++ {
			if math.Abs(x6[i]-xm[i]) > 1e-9 {
				t.Fatalf("trial %d: x6[%d]=%v xm=%v", trial, i, x6[i], xm[i])
			}
		}
	}
}

func TestAccumulateNormalBuildsNormalEquations(t *testing.T) {
	// Accumulating rows must equal explicit AᵀA / Aᵀb construction.
	rows := [][6]float64{
		{1, 2, 3, 4, 5, 6},
		{0.5, -1, 2, 0, 1, -2},
		{3, 0, 0, 1, 1, 1},
	}
	rhs := []float64{2, -1, 0.5}
	var a Mat6
	var b Vec6
	for k, r := range rows {
		rv := Vec6(r)
		AccumulateNormal(&a, &b, &rv, rhs[k], 1)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			var want float64
			for k := range rows {
				want += rows[k][i] * rows[k][j]
			}
			if math.Abs(a[i][j]-want) > 1e-12 {
				t.Fatalf("a[%d][%d] = %v, want %v", i, j, a[i][j], want)
			}
		}
		var wantB float64
		for k := range rows {
			wantB += rows[k][i] * rhs[k]
		}
		if math.Abs(b[i]-wantB) > 1e-12 {
			t.Fatalf("b[%d] = %v, want %v", i, b[i], wantB)
		}
	}
}

func TestAccumulateNormalWeighting(t *testing.T) {
	var a1, a2 Mat6
	var b1, b2 Vec6
	row := Vec6{1, 1, 1, 1, 1, 1}
	AccumulateNormal(&a1, &b1, &row, 2, 3)
	AccumulateNormal(&a2, &b2, &row, 2, 1)
	AccumulateNormal(&a2, &b2, &row, 2, 1)
	AccumulateNormal(&a2, &b2, &row, 2, 1)
	for i := 0; i < 6; i++ {
		if math.Abs(b1[i]-b2[i]) > 1e-12 {
			t.Fatalf("weighted accumulation mismatch at b[%d]: %v vs %v", i, b1[i], b2[i])
		}
		for j := 0; j < 6; j++ {
			if math.Abs(a1[i][j]-a2[i][j]) > 1e-12 {
				t.Fatalf("weighted accumulation mismatch at a[%d][%d]", i, j)
			}
		}
	}
}

// Property: for random well-conditioned systems, A·Solve(A,b) ≈ b.
func TestPropertySolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		a := NewMatrix(n, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
			b[i] = rng.NormFloat64() * 10
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: least-squares residual is orthogonal to the column space
// (Aᵀ(b − A·x) ≈ 0).
func TestPropertyLeastSquaresOrthogonality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 8 + rng.Intn(8)
		cols := 2 + rng.Intn(4)
		a := NewMatrix(rows, cols)
		b := make([]float64, rows)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // rank-deficient random draw; skip
		}
		ax := a.MulVec(x)
		res := make([]float64, rows)
		for i := range res {
			res[i] = b[i] - ax[i]
		}
		proj := a.Transpose().MulVec(res)
		for _, v := range proj {
			if math.Abs(v) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSolve6(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var a Mat6
	var v Vec6
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a[i][j] = rng.NormFloat64()
		}
		a[i][i] += 8
		v[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		aa := a
		bb := v
		if _, ok := Solve6(&aa, &bb); !ok {
			b.Fatal("singular")
		}
	}
}

func TestCholesky6MatchesSolve6OnSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 50; trial++ {
		// Build SPD A = MᵀM + I.
		var m Mat6
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				m[i][j] = rng.NormFloat64()
			}
		}
		var a Mat6
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				for k := 0; k < 6; k++ {
					a[i][j] += m[k][i] * m[k][j]
				}
			}
			a[i][i]++
		}
		var b Vec6
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ac := a
		bc := b
		xc, ok := Cholesky6(&ac, &bc)
		if !ok {
			t.Fatalf("trial %d: SPD matrix rejected", trial)
		}
		ag := a
		bg := b
		xg, ok := Solve6(&ag, &bg)
		if !ok {
			t.Fatalf("trial %d: Solve6 failed", trial)
		}
		for i := 0; i < 6; i++ {
			if math.Abs(xc[i]-xg[i]) > 1e-8 {
				t.Fatalf("trial %d: x[%d] %v vs %v", trial, i, xc[i], xg[i])
			}
		}
	}
}

func TestCholesky6RejectsIndefinite(t *testing.T) {
	var a Mat6
	for i := range a {
		a[i][i] = 1
	}
	a[3][3] = -1 // indefinite
	var b Vec6
	if _, ok := Cholesky6(&a, &b); ok {
		t.Fatal("indefinite matrix accepted")
	}
}

func BenchmarkSolvers(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var m Mat6
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			m[i][j] = rng.NormFloat64()
		}
	}
	var a Mat6
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				a[i][j] += m[k][i] * m[k][j]
			}
		}
		a[i][i]++
	}
	var v Vec6
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.Run("gauss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aa, bb := a, v
			if _, ok := Solve6(&aa, &bb); !ok {
				b.Fatal("singular")
			}
		}
	})
	b.Run("cholesky", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aa, bb := a, v
			if _, ok := Cholesky6(&aa, &bb); !ok {
				b.Fatal("not SPD")
			}
		}
	})
}

// Property: Factor6 + SolveFactored6 is bit-identical to Solve6 — not
// merely close: the factored path replays the exact elimination arithmetic
// of Solve6, so the tracker can hoist the factorization out of the
// hypothesis loop without perturbing a single ULP of the motion estimate.
func TestPropertyFactoredSolveBitIdentical(t *testing.T) {
	check := func(t *testing.T, a *Mat6, v *Vec6) {
		t.Helper()
		aa, bb := *a, *v
		want, wantOK := Solve6(&aa, &bb)
		fa := *a
		f, ok := Factor6(&fa)
		if ok != wantOK {
			t.Fatalf("Factor6 ok = %v, Solve6 ok = %v", ok, wantOK)
		}
		if !ok {
			return
		}
		fb := *v
		got := SolveFactored6(&f, &fb)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("x[%d]: factored %v (bits %x) != direct %v (bits %x)",
					i, got[i], math.Float64bits(got[i]),
					want[i], math.Float64bits(want[i]))
			}
		}
	}

	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var a Mat6
			var v Vec6
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					a[i][j] = rng.NormFloat64()
				}
				v[i] = rng.NormFloat64() * 10
			}
			check(t, &a, &v)
		}
	})
	t.Run("pivoting-required", func(t *testing.T) {
		// Tiny leading diagonal entries force row swaps at every column.
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(1000 + seed))
			var a Mat6
			var v Vec6
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					a[i][j] = rng.NormFloat64()
				}
				a[i][i] *= 1e-14
				v[i] = rng.NormFloat64()
			}
			check(t, &a, &v)
		}
	})
	t.Run("near-singular", func(t *testing.T) {
		// Nearly dependent rows: both paths must agree on acceptance and,
		// when accepted, on the bits of the (wild) solution.
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(2000 + seed))
			var a Mat6
			var v Vec6
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					a[i][j] = rng.NormFloat64()
				}
				v[i] = rng.NormFloat64()
			}
			for j := 0; j < 6; j++ { // row 5 ≈ row 0 + row 1
				a[5][j] = a[0][j] + a[1][j] + rng.NormFloat64()*1e-13
			}
			check(t, &a, &v)
		}
	})
	t.Run("singular", func(t *testing.T) {
		var a Mat6 // rank 1
		for j := 0; j < 6; j++ {
			a[0][j] = float64(j + 1)
			a[3][j] = 2 * float64(j+1)
		}
		var v Vec6
		check(t, &a, &v)
	})
	t.Run("normal-equations", func(t *testing.T) {
		// The shape the tracker actually produces: AᵀWA accumulations.
		for seed := int64(0); seed < 100; seed++ {
			rng := rand.New(rand.NewSource(3000 + seed))
			var a Mat6
			var v Vec6
			for k := 0; k < 12; k++ {
				var row Vec6
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				AccumulateNormal(&a, &v, &row, rng.NormFloat64(), 1+rng.Float64())
			}
			for i := 1; i < 6; i++ {
				for j := 0; j < i; j++ {
					a[i][j] = a[j][i]
				}
			}
			check(t, &a, &v)
		}
	})
}

// Reusing a factorization across many right-hand sides must leave the
// factorization itself untouched.
func TestSolveFactored6ReusableAcrossRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Mat6
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a[i][j] = rng.NormFloat64()
		}
		a[i][i] += 4
	}
	f, ok := Factor6(&a)
	if !ok {
		t.Fatal("Factor6 failed")
	}
	saved := f
	for trial := 0; trial < 50; trial++ {
		var v Vec6
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		aa, bb := a, v
		want, _ := Solve6(&aa, &bb)
		fb := v
		got := SolveFactored6(&f, &fb)
		if got != want {
			t.Fatalf("trial %d: factored %v != direct %v", trial, got, want)
		}
		if f != saved {
			t.Fatalf("trial %d: SolveFactored6 mutated the factorization", trial)
		}
	}
}

func BenchmarkFactoredSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	var a Mat6
	var v Vec6
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a[i][j] = rng.NormFloat64()
		}
		a[i][i] += 8
		v[i] = rng.NormFloat64()
	}
	b.Run("factor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aa := a
			if _, ok := Factor6(&aa); !ok {
				b.Fatal("singular")
			}
		}
	})
	f, _ := Factor6(&a)
	b.Run("solve-factored", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bb := v
			_ = SolveFactored6(&f, &bb)
		}
	})
	b.Run("solve-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			aa, bb := a, v
			if _, ok := Solve6(&aa, &bb); !ok {
				b.Fatal("singular")
			}
		}
	})
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

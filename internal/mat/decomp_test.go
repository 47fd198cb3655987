package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD returns a random symmetric positive definite n×n matrix.
func randSPD(rnd *rand.Rand, n int) *Dense {
	a := randDense(rnd, n+3, n)
	g := Gram(a)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+0.5)
	}
	return g
}

func TestLUSolveVec(t *testing.T) {
	a := FromRows([][]float64{{4, 3}, {6, 3}})
	x, err := SolveVec(a, []float64{10, 12})
	if err != nil {
		t.Fatal(err)
	}
	// 4x+3y=10, 6x+3y=12 -> x=1, y=2
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("SolveVec = %v, want [1 2]", x)
	}
}

func TestLUSolveRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 20, 60} {
		a := randDense(rnd, n, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rnd.NormFloat64()
		}
		b := MulVec(a, want)
		got, err := SolveVec(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d: solution mismatch at %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("FactorLU on singular matrix succeeded")
	}
}

func TestInverse(t *testing.T) {
	rnd := rand.New(rand.NewSource(31))
	a := randDense(rnd, 12, 12)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(a, inv).EqualApprox(Eye(12), 1e-9) {
		t.Fatal("A·A⁻¹ != I")
	}
}

func TestCholeskySolve(t *testing.T) {
	rnd := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 3, 10, 40} {
		a := randSPD(rnd, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rnd.NormFloat64()
		}
		b := MulVec(a, want)
		c, err := FactorCholeskyTo(New(n, n), a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := c.SolveVec(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-7 {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
		// L·Lᵀ must reconstruct A.
		l := c.L()
		if !Mul(l, l.T()).EqualApprox(a, 1e-8*FrobeniusNorm(a)) {
			t.Fatalf("n=%d: LLᵀ != A", n)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := FactorCholeskyTo(New(2, 2), a); err == nil {
		t.Fatal("FactorCholeskyTo accepted an indefinite matrix")
	}
}

func TestSolveRightSPD(t *testing.T) {
	rnd := rand.New(rand.NewSource(41))
	a := randSPD(rnd, 6)
	b := randDense(rnd, 4, 6)
	x := New(4, 6)
	if err := SolveRightSPDTo(x, b, a, New(6, 6)); err != nil {
		t.Fatal(err)
	}
	if !Mul(x, a).EqualApprox(b, 1e-8) {
		t.Fatal("X·A != B")
	}
}

func TestQRLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system has exact solution.
	rnd := rand.New(rand.NewSource(43))
	a := randDense(rnd, 20, 6)
	want := make([]float64, 6)
	for i := range want {
		want[i] = rnd.NormFloat64()
	}
	b := MulVec(a, want)
	got, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestQRResidualOrthogonal(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space.
	rnd := rand.New(rand.NewSource(47))
	a := randDense(rnd, 15, 4)
	b := make([]float64, 15)
	for i := range b {
		b[i] = rnd.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res := MulVec(a, x)
	for i := range res {
		res[i] = b[i] - res[i]
	}
	proj := MulVecT(a, res)
	for i, v := range proj {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("Aᵀr[%d] = %v, want ~0", i, v)
		}
	}
}

func TestSVDReconstruct(t *testing.T) {
	rnd := rand.New(rand.NewSource(53))
	for _, dims := range [][2]int{{1, 1}, {5, 3}, {3, 5}, {20, 20}, {40, 17}, {17, 40}} {
		a := randDense(rnd, dims[0], dims[1])
		s := FactorSVD(a)
		if !s.Reconstruct().EqualApprox(a, 1e-9*math.Max(1, FrobeniusNorm(a))) {
			t.Fatalf("dims %v: UΣVᵀ != A", dims)
		}
	}
}

func TestSVDOrthogonality(t *testing.T) {
	rnd := rand.New(rand.NewSource(59))
	a := randDense(rnd, 12, 8)
	s := FactorSVD(a)
	if !Gram(s.U).EqualApprox(Eye(8), 1e-9) {
		t.Fatal("UᵀU != I")
	}
	if !Gram(s.V).EqualApprox(Eye(8), 1e-9) {
		t.Fatal("VᵀV != I")
	}
}

func TestSVDSortedNonnegative(t *testing.T) {
	rnd := rand.New(rand.NewSource(61))
	a := randDense(rnd, 10, 7)
	s := FactorSVD(a)
	for i, v := range s.S {
		if v < 0 {
			t.Fatalf("S[%d] = %v < 0", i, v)
		}
		if i > 0 && s.S[i] > s.S[i-1]+1e-12 {
			t.Fatalf("S not sorted: S[%d]=%v > S[%d]=%v", i, s.S[i], i-1, s.S[i-1])
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) has singular values exactly 3 and 2.
	a := Diag([]float64{3, 2})
	s := FactorSVD(a)
	if math.Abs(s.S[0]-3) > 1e-12 || math.Abs(s.S[1]-2) > 1e-12 {
		t.Fatalf("S = %v, want [3 2]", s.S)
	}
}

func TestRank(t *testing.T) {
	if got := Rank(Eye(5)); got != 5 {
		t.Fatalf("Rank(I5) = %d", got)
	}
	// Rank-2 matrix: outer product sum.
	rnd := rand.New(rand.NewSource(67))
	u := randDense(rnd, 10, 2)
	v := randDense(rnd, 2, 8)
	if got := Rank(Mul(u, v)); got != 2 {
		t.Fatalf("Rank of rank-2 product = %d", got)
	}
	if got := Rank(New(4, 4)); got != 0 {
		t.Fatalf("Rank(0) = %d", got)
	}
}

func TestPseudoInverseProperties(t *testing.T) {
	// Moore–Penrose conditions: A·A⁺·A = A and A⁺·A·A⁺ = A⁺.
	rnd := rand.New(rand.NewSource(71))
	for _, dims := range [][2]int{{8, 5}, {5, 8}, {6, 6}} {
		a := randDense(rnd, dims[0], dims[1])
		p := PseudoInverse(a)
		if !Mul(Mul(a, p), a).EqualApprox(a, 1e-8) {
			t.Fatalf("dims %v: A·A⁺·A != A", dims)
		}
		if !Mul(Mul(p, a), p).EqualApprox(p, 1e-8) {
			t.Fatalf("dims %v: A⁺·A·A⁺ != A⁺", dims)
		}
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	u := randDense(rnd, 9, 3)
	v := randDense(rnd, 3, 7)
	a := Mul(u, v) // rank 3
	p := PseudoInverse(a)
	if !Mul(Mul(a, p), a).EqualApprox(a, 1e-7) {
		t.Fatal("rank-deficient A·A⁺·A != A")
	}
}

func TestSymEig(t *testing.T) {
	rnd := rand.New(rand.NewSource(79))
	for _, n := range []int{1, 2, 6, 25} {
		a := randSPD(rnd, n)
		e, err := FactorSymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		if !e.Reconstruct().EqualApprox(a, 1e-8*math.Max(1, FrobeniusNorm(a))) {
			t.Fatalf("n=%d: VΛVᵀ != A", n)
		}
		if !Gram(e.Vectors).EqualApprox(Eye(n), 1e-9) {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
		for i := 1; i < n; i++ {
			if e.Values[i] > e.Values[i-1]+1e-10 {
				t.Fatalf("n=%d: eigenvalues not sorted", n)
			}
		}
	}
}

func TestSymEigKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 2}}) // eigenvalues 3 and 1
	e, err := FactorSymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Values[0]-3) > 1e-10 || math.Abs(e.Values[1]-1) > 1e-10 {
		t.Fatalf("Values = %v, want [3 1]", e.Values)
	}
}

func TestSqrtPSD(t *testing.T) {
	rnd := rand.New(rand.NewSource(83))
	a := randSPD(rnd, 8)
	s, err := SqrtPSD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(s, s).EqualApprox(a, 1e-7*FrobeniusNorm(a)) {
		t.Fatal("sqrt(A)² != A")
	}
}

func TestProjectPSD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	p, err := ProjectPSD(a, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := FactorSymEig(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range e.Values {
		if v < 0.1-1e-9 {
			t.Fatalf("eigenvalue %v below floor", v)
		}
	}
}

func TestSpectralNormMatchesSVD(t *testing.T) {
	rnd := rand.New(rand.NewSource(89))
	a := randDense(rnd, 14, 9)
	want := FactorSVD(a).S[0]
	got := SpectralNorm(a)
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("SpectralNorm = %v, SVD gives %v", got, want)
	}
}

// Property: SVD singular values are invariant under orthogonal column
// permutation of A, and scale linearly with scalar multiplication.
func TestSVDScaleProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 2+r.Intn(8), 2+r.Intn(8)
		a := randDense(r, m, n)
		c := 0.5 + r.Float64()*3
		s1 := FactorSVD(a).S
		s2 := FactorSVD(Scale(c, a)).S
		for i := range s1 {
			if math.Abs(s2[i]-c*s1[i]) > 1e-8*(1+s1[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Frobenius norm equals the L2 norm of singular values.
func TestSVDFrobeniusProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		a := randDense(r, m, n)
		s := FactorSVD(a).S
		var sum float64
		for _, v := range s {
			sum += v * v
		}
		return math.Abs(sum-SquaredSum(a)) < 1e-8*(1+sum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

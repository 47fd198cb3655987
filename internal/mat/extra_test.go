package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestLambdaMaxSym(t *testing.T) {
	a := Diag([]float64{1, 7, 3})
	if got := LambdaMaxSymBuf(a, 200, make([]float64, 3), make([]float64, 3)); math.Abs(got-7) > 1e-8 {
		t.Fatalf("LambdaMaxSymBuf = %v, want 7", got)
	}
	if got := LambdaMaxSymBuf(New(0, 0), 10, nil, nil); got != 0 {
		t.Fatalf("empty matrix lambda = %v", got)
	}
	if got := LambdaMaxSymBuf(New(3, 3), 10, make([]float64, 3), make([]float64, 3)); got != 0 {
		t.Fatalf("zero matrix lambda = %v", got)
	}
}

func TestLambdaMaxSymMatchesEig(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 5, 20} {
		spd := randSPD(rnd, n)
		e, err := FactorSymEig(spd)
		if err != nil {
			t.Fatal(err)
		}
		got := LambdaMaxSymBuf(spd, 500, make([]float64, n), make([]float64, n))
		if math.Abs(got-e.Values[0]) > 1e-6*e.Values[0] {
			t.Fatalf("n=%d: power %v vs eig %v", n, got, e.Values[0])
		}
	}
}

func TestLUHilbertIllConditioned(t *testing.T) {
	// The 8×8 Hilbert matrix is famously ill-conditioned (~1e10) but LU
	// with partial pivoting should still solve it to a few digits.
	n := 8
	h := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			h.Set(i, j, 1/float64(i+j+1))
		}
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = 1
	}
	b := MulVec(h, want)
	got, err := SolveVec(h, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-1) > 1e-3 {
			t.Fatalf("Hilbert solve x[%d] = %v", i, got[i])
		}
	}
}

func TestSVDRankOne(t *testing.T) {
	// Outer product u·vᵀ has exactly one nonzero singular value
	// ‖u‖·‖v‖.
	u := []float64{1, 2, 3}
	v := []float64{4, 5}
	a := New(3, 2)
	for i := range u {
		for j := range v {
			a.Set(i, j, u[i]*v[j])
		}
	}
	s := FactorSVD(a)
	want := VecNorm2(u) * VecNorm2(v)
	if math.Abs(s.S[0]-want) > 1e-10*want {
		t.Fatalf("S[0] = %v, want %v", s.S[0], want)
	}
	if s.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", s.Rank())
	}
}

func TestSVDOrthogonalInputs(t *testing.T) {
	// An orthogonal matrix has all singular values equal to 1.
	rnd := rand.New(rand.NewSource(3))
	q := FactorSVD(randDense(rnd, 10, 10)).U // orthogonal by construction
	s := FactorSVD(q)
	for i, v := range s.S {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("S[%d] = %v, want 1", i, v)
		}
	}
}

func TestMulLargeParallelPath(t *testing.T) {
	// Exercise the parallel branch of mulInto (total work above the
	// threshold) and compare against the naive product on a slice.
	rnd := rand.New(rand.NewSource(5))
	a := randDense(rnd, 300, 300)
	b := randDense(rnd, 300, 300)
	got := Mul(a, b)
	// Spot-check 50 random entries against explicit dot products.
	for trial := 0; trial < 50; trial++ {
		i, j := rnd.Intn(300), rnd.Intn(300)
		var want float64
		for k := 0; k < 300; k++ {
			want += a.At(i, k) * b.At(k, j)
		}
		if math.Abs(got.At(i, j)-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("entry (%d,%d) = %v, want %v", i, j, got.At(i, j), want)
		}
	}
}

func TestMulOddDimensionsUnrollTail(t *testing.T) {
	// Dimensions not divisible by the unroll factor exercise the scalar
	// tail of the blocked kernel.
	rnd := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 2, 3, 5, 7, 9} {
		a := randDense(rnd, 4, k)
		b := randDense(rnd, k, 6)
		if got, want := Mul(a, b), mulNaive(a, b); !got.EqualApprox(want, 1e-12) {
			t.Fatalf("k=%d: blocked kernel mismatch", k)
		}
	}
}

func TestPseudoInverseZeroMatrix(t *testing.T) {
	p := PseudoInverse(New(3, 4))
	if p.Rows() != 4 || p.Cols() != 3 {
		t.Fatalf("dims %d×%d", p.Rows(), p.Cols())
	}
	for _, v := range p.RawData() {
		if v != 0 {
			t.Fatal("pseudo-inverse of zero not zero")
		}
	}
}

func TestConditionNumber(t *testing.T) {
	s := FactorSVD(Diag([]float64{10, 2}))
	if got := s.ConditionNumber(); math.Abs(got-5) > 1e-10 {
		t.Fatalf("C = %v, want 5", got)
	}
	if got := FactorSVD(New(2, 2)).ConditionNumber(); !math.IsInf(got, 1) {
		t.Fatalf("C of zero matrix = %v, want +Inf", got)
	}
}

func TestSolveRightSPDMismatch(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	spd := randSPD(rnd, 4)
	if err := SolveRightSPDTo(New(3, 5), New(3, 5), spd, New(4, 4)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestGramEmpty(t *testing.T) {
	g := Gram(New(0, 3))
	if g.Rows() != 3 || g.Cols() != 3 {
		t.Fatalf("Gram dims %d×%d", g.Rows(), g.Cols())
	}
	if SquaredSum(g) != 0 {
		t.Fatal("Gram of empty rows not zero")
	}
}

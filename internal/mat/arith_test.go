package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// mulNaive is an obviously-correct reference product for testing Mul.
func mulNaive(a, b *Dense) *Dense {
	out := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestAddSub(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	sum := Add(a, b)
	if !sum.Equal(FromRows([][]float64{{6, 8}, {10, 12}})) {
		t.Fatalf("Add = %v", sum)
	}
	diff := Sub(sum, b)
	if !diff.Equal(a) {
		t.Fatalf("Sub(Add(a,b),b) != a: %v", diff)
	}
}

func TestAddDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched dims did not panic")
		}
	}()
	Add(New(2, 2), New(2, 3))
}

func TestScale(t *testing.T) {
	a := FromRows([][]float64{{1, -2}})
	if got := Scale(-3, a); !got.Equal(FromRows([][]float64{{-3, 6}})) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestAddScaled(t *testing.T) {
	a := FromRows([][]float64{{1, 1}})
	b := FromRows([][]float64{{2, 3}})
	if got := AddScaledTo(New(1, 2), a, 2, b); !got.Equal(FromRows([][]float64{{5, 7}})) {
		t.Fatalf("AddScaledTo = %v", got)
	}
}

func TestElemMul(t *testing.T) {
	a := FromRows([][]float64{{2, 3}})
	b := FromRows([][]float64{{4, 5}})
	if got := ElemMulTo(New(1, 2), a, b); !got.Equal(FromRows([][]float64{{8, 15}})) {
		t.Fatalf("ElemMulTo = %v", got)
	}
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := Mul(a, b); !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {10, 4, 9}, {64, 33, 70}, {130, 120, 110}} {
		a := randDense(rnd, dims[0], dims[1])
		b := randDense(rnd, dims[1], dims[2])
		got := Mul(a, b)
		want := mulNaive(a, b)
		if !got.EqualApprox(want, 1e-10) {
			t.Fatalf("Mul mismatch for dims %v", dims)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	a := randDense(rnd, 9, 9)
	if !Mul(a, Eye(9)).EqualApprox(a, 1e-14) {
		t.Fatal("A·I != A")
	}
	if !Mul(Eye(9), a).EqualApprox(a, 1e-14) {
		t.Fatal("I·A != A")
	}
}

func TestMulABt(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	a := randDense(rnd, 6, 8)
	b := randDense(rnd, 5, 8)
	if got, want := MulABt(a, b), Mul(a, b.T()); !got.EqualApprox(want, 1e-12) {
		t.Fatal("MulABt != Mul(a, b.T())")
	}
}

func TestMulAtB(t *testing.T) {
	rnd := rand.New(rand.NewSource(13))
	a := randDense(rnd, 8, 6)
	b := randDense(rnd, 8, 5)
	if got, want := MulAtB(a, b), Mul(a.T(), b); !got.EqualApprox(want, 1e-12) {
		t.Fatal("MulAtB != Mul(a.T(), b)")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := MulVec(a, []float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMulVecT(t *testing.T) {
	rnd := rand.New(rand.NewSource(17))
	a := randDense(rnd, 5, 7)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rnd.NormFloat64()
	}
	got := MulVecT(a, x)
	want := MulVec(a.T(), x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVecT mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestGram(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	a := randDense(rnd, 7, 4)
	if got, want := Gram(a), Mul(a.T(), a); !got.EqualApprox(want, 1e-12) {
		t.Fatal("Gram != AᵀA")
	}
	if got, want := GramTTo(New(7, 7), a), Mul(a, a.T()); !got.EqualApprox(want, 1e-12) {
		t.Fatal("GramTTo != AAᵀ")
	}
}

func TestDot(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Dot(a, b); got != 5+12+21+32 {
		t.Fatalf("Dot = %v", got)
	}
}

// Property: matrix multiplication is associative and distributes over
// addition (up to roundoff), exercised on random small matrices.
func TestMulPropertyBased(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	rnd := rand.New(rand.NewSource(23))
	assoc := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n, p := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b, c := randDense(rnd, m, k), randDense(rnd, k, n), randDense(rnd, n, p)
		lhs := Mul(Mul(a, b), c)
		rhs := Mul(a, Mul(b, c))
		return lhs.EqualApprox(rhs, 1e-9)
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distrib := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randDense(rnd, m, k)
		b, c := randDense(rnd, k, n), randDense(rnd, k, n)
		lhs := Mul(a, Add(b, c))
		rhs := Add(Mul(a, b), Mul(a, c))
		return lhs.EqualApprox(rhs, 1e-9)
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(29))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a, b := randDense(rnd, m, k), randDense(rnd, k, n)
		return Mul(a, b).T().EqualApprox(Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

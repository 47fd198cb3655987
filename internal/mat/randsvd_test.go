package mat

import (
	"math"
	"testing"

	"lrm/internal/rng"
)

// lowRank builds an m×n matrix of exact rank r with singular values
// roughly spanning [1, r].
func lowRank(m, n, r int, src *rng.Source) *Dense {
	u := New(m, r)
	for i := range u.data {
		u.data[i] = src.Normal()
	}
	v := New(r, n)
	for i := range v.data {
		v.data[i] = src.Normal()
	}
	return Mul(u, v)
}

func TestRandSVDExactOnLowRank(t *testing.T) {
	src := rng.New(1)
	a := lowRank(60, 40, 5, src)
	s, err := RandSVD(a, 5, RandSVDOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	recon := Mul(s.U, Mul(Diag(s.S), s.V.T()))
	if !recon.EqualApprox(a, 1e-8*FrobeniusNorm(a)) {
		t.Fatal("rank-5 matrix not reconstructed by 5-component RandSVD")
	}
}

func TestRandSVDMatchesExactSingularValues(t *testing.T) {
	src := rng.New(3)
	a := lowRank(50, 30, 8, src)
	exact := FactorSVD(a)
	approx, err := RandSVD(a, 8, RandSVDOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if math.Abs(exact.S[i]-approx.S[i]) > 1e-8*(1+exact.S[i]) {
			t.Fatalf("σ%d: exact %g approx %g", i, exact.S[i], approx.S[i])
		}
	}
}

func TestRandSVDOrthonormalFactors(t *testing.T) {
	src := rng.New(5)
	a := lowRank(40, 40, 6, src)
	s, err := RandSVD(a, 6, RandSVDOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Dense{s.U, s.V} {
		g := Gram(f) // FᵀF should be identity
		if !g.EqualApprox(Eye(g.Rows()), 1e-8) {
			t.Fatal("factor columns not orthonormal")
		}
	}
}

func TestRandSVDCapturesDominantSubspace(t *testing.T) {
	// Full-rank matrix with a sharp spectral gap: the top-k approximation
	// error should be near the optimal (Eckart-Young) error, i.e. the
	// energy of the dropped tail.
	src := rng.New(7)
	m, n := 50, 50
	a := lowRank(m, n, 3, src)
	noise := New(m, n)
	for i := range noise.data {
		noise.data[i] = src.Normal() * 1e-3
	}
	a = Add(a, noise)
	exact := FactorSVD(a)
	s, err := RandSVD(a, 3, RandSVDOptions{Seed: 8, PowerIters: 3})
	if err != nil {
		t.Fatal(err)
	}
	recon := Mul(s.U, Mul(Diag(s.S), s.V.T()))
	errF := FrobeniusNorm(Sub(a, recon))
	var optimal float64
	for _, v := range exact.S[3:] {
		optimal += v * v
	}
	optimal = math.Sqrt(optimal)
	if errF > 1.5*optimal+1e-12 {
		t.Fatalf("approximation error %g vs optimal %g", errF, optimal)
	}
}

func TestRandSVDValidation(t *testing.T) {
	a := New(4, 4)
	if _, err := RandSVD(a, 0, RandSVDOptions{}); err == nil {
		t.Fatal("want error for k < 1")
	}
	if _, err := RandSVD(a, 2, RandSVDOptions{Oversample: -1}); err == nil {
		t.Fatal("want error for negative oversample")
	}
	if _, err := RandSVD(a, 2, RandSVDOptions{PowerIters: -1}); err == nil {
		t.Fatal("want error for negative power iterations")
	}
	// k larger than min dimension is clamped, not an error.
	src := rng.New(9)
	b := lowRank(6, 4, 2, src)
	s, err := RandSVD(b, 100, RandSVDOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.S) > 4 {
		t.Fatalf("clamp failed: %d singular values", len(s.S))
	}
}

func TestRandSVDDeterministicInSeed(t *testing.T) {
	src := rng.New(10)
	a := lowRank(20, 20, 4, src)
	s1, _ := RandSVD(a, 4, RandSVDOptions{Seed: 42})
	s2, _ := RandSVD(a, 4, RandSVDOptions{Seed: 42})
	for i := range s1.S {
		if s1.S[i] != s2.S[i] {
			t.Fatal("same seed should reproduce identical singular values")
		}
	}
}

func TestOrthonormalizeDropsDependentColumns(t *testing.T) {
	// Two identical columns: the second must be zeroed, not NaN.
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	q := orthonormalize(a)
	if !q.IsFinite() {
		t.Fatal("orthonormalize produced non-finite values")
	}
	c1 := q.Col(1)
	for _, v := range c1 {
		if v != 0 {
			t.Fatal("dependent column should be zeroed")
		}
	}
}

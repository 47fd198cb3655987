package rng

import (
	"math"
	"testing"
)

func TestReproducibility(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Laplace(1) != b.Laplace(1) {
			t.Fatal("same seed produced different Laplace streams")
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(1)
	child := s.Split()
	if child == nil {
		t.Fatal("Split returned nil")
	}
	// Children of identical parents are identical.
	s2 := New(1)
	child2 := s2.Split()
	for i := 0; i < 10; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestLaplaceMomentsMatchTheory(t *testing.T) {
	// Var(Lap(b)) = 2b²; mean 0. Check with 200k samples.
	s := New(7)
	const n = 200_000
	const b = 2.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Laplace(b)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("Laplace mean = %v, want ~0", mean)
	}
	want := 2 * b * b
	if math.Abs(variance-want) > 0.05*want {
		t.Fatalf("Laplace variance = %v, want ~%v", variance, want)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	s := New(1)
	if got := s.Laplace(0); got != 0 {
		t.Fatalf("Laplace(0) = %v", got)
	}
}

func TestLaplaceNegativeScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Laplace(-1) did not panic")
		}
	}()
	New(1).Laplace(-1)
}

func TestLaplaceSymmetry(t *testing.T) {
	s := New(11)
	const n = 100_000
	pos := 0
	for i := 0; i < n; i++ {
		if s.Laplace(1) > 0 {
			pos++
		}
	}
	frac := float64(pos) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("P(X>0) = %v, want ~0.5", frac)
	}
}

func TestNormalVecVariance(t *testing.T) {
	s := New(3)
	v := s.NormalVec(100_000, 3)
	var sumSq float64
	for _, x := range v {
		sumSq += x * x
	}
	variance := sumSq / float64(len(v))
	if math.Abs(variance-9) > 0.5 {
		t.Fatalf("variance = %v, want ~9", variance)
	}
}

func TestUniformVecRange(t *testing.T) {
	s := New(4)
	v := s.UniformVec(10_000, -2, 5)
	for _, x := range v {
		if x < -2 || x >= 5 {
			t.Fatalf("uniform sample %v outside [-2,5)", x)
		}
	}
}

func TestParetoTail(t *testing.T) {
	s := New(5)
	// All samples >= xm; mean for alpha>1 is alpha·xm/(alpha−1).
	const xm, alpha = 1.0, 2.5
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		x := s.Pareto(xm, alpha)
		if x < xm {
			t.Fatalf("Pareto sample %v < xm", x)
		}
		sum += x
	}
	mean := sum / n
	want := alpha * xm / (alpha - 1)
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("Pareto mean = %v, want ~%v", mean, want)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(6)
	for _, lambda := range []float64{0.5, 4, 50, 800} {
		var sum float64
		const n = 50_000
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) mean = %v", lambda, mean)
		}
	}
	if s.Poisson(0) != 0 || s.Poisson(-1) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

package mechanism

import (
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

func TestHaarStrategySensitivity(t *testing.T) {
	for _, n := range []int{1, 2, 8, 16, 13} {
		a, err := HaarStrategy(n)
		if err != nil {
			t.Fatal(err)
		}
		padded := 1
		h := 0
		for padded < n {
			padded *= 2
			h++
		}
		want := float64(1 + h)
		if got := mat.MaxColAbsSum(a); math.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d: sensitivity %v, want %v", n, got, want)
		}
	}
}

func TestHaarStrategyRowsOrthogonal(t *testing.T) {
	a, err := HaarStrategy(16)
	if err != nil {
		t.Fatal(err)
	}
	g := mat.GramTTo(mat.New(a.Rows(), a.Rows()), a)
	for i := 0; i < g.Rows(); i++ {
		for j := 0; j < g.Cols(); j++ {
			if i != j && math.Abs(g.At(i, j)) > 1e-12 {
				t.Fatalf("rows %d,%d not orthogonal: %v", i, j, g.At(i, j))
			}
		}
	}
}

// The analytic SSE of the dense Haar strategy must match the fast
// transform-based wavelet mechanism exactly (power-of-two domain).
func TestWaveletMatchesDenseStrategy(t *testing.T) {
	for _, n := range []int{8, 16, 32} {
		w := workload.Range(12, n, rng.New(int64(n)))
		fast, err := Wavelet{}.Prepare(w)
		if err != nil {
			t.Fatal(err)
		}
		a, err := HaarStrategy(n)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewStrategyPrepared(w, a)
		if err != nil {
			t.Fatal(err)
		}
		got, want := fast.ExpectedSSE(1), dense.ExpectedSSE(1)
		if math.Abs(got-want) > 1e-6*want {
			t.Fatalf("n=%d: fast wavelet SSE %v != dense strategy SSE %v", n, got, want)
		}
	}
}

func TestTreeStrategyShape(t *testing.T) {
	a, err := TreeStrategy(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 2 + 4 + 8 = 15 nodes.
	if a.Rows() != 15 || a.Cols() != 8 {
		t.Fatalf("dims %d×%d", a.Rows(), a.Cols())
	}
	// Sensitivity = number of levels.
	if got := mat.MaxColAbsSum(a); got != 4 {
		t.Fatalf("sensitivity %v, want 4", got)
	}
	// Root row is all ones.
	for j := 0; j < 8; j++ {
		if a.At(0, j) != 1 {
			t.Fatal("root row not all ones")
		}
	}
}

// The fast hierarchical mechanism's Monte-Carlo error must match the
// analytic SSE of its dense least-squares equivalent: Hay et al.'s
// two-pass consistency IS the least-squares estimate.
func TestHierarchicalMatchesDenseStrategy(t *testing.T) {
	n := 16
	w := workload.Range(10, n, rng.New(3))
	a, err := TreeStrategy(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewStrategyPrepared(w, a)
	if err != nil {
		t.Fatal(err)
	}
	want := dense.ExpectedSSE(1)

	fast, err := Hierarchical{}.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	got := empiricalSSE(t, fast, w, x, 1, 20000, rng.New(4))
	if math.Abs(got-want) > 0.08*want {
		t.Fatalf("fast HM empirical SSE %v vs dense analytic %v", got, want)
	}
}

// Same cross-validation for the wavelet fast path, via Monte Carlo on a
// non-power-of-two domain (exercises padding in both paths).
func TestWaveletPaddedMatchesDenseStrategy(t *testing.T) {
	n := 12
	w := workload.Range(8, n, rng.New(5))
	a, err := HaarStrategy(n)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewStrategyPrepared(w, a)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Wavelet{}.Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	got := empiricalSSE(t, fast, w, x, 1, 20000, rng.New(6))
	want := dense.ExpectedSSE(1)
	if math.Abs(got-want) > 0.08*want {
		t.Fatalf("fast WM empirical SSE %v vs dense analytic %v", got, want)
	}
}

func TestStrategyConstructorsRejectBadInput(t *testing.T) {
	if _, err := HaarStrategy(0); err == nil {
		t.Fatal("HaarStrategy(0) accepted")
	}
	if _, err := TreeStrategy(0, 2); err == nil {
		t.Fatal("TreeStrategy(0,2) accepted")
	}
	if _, err := TreeStrategy(8, 1); err == nil {
		t.Fatal("TreeStrategy(8,1) accepted")
	}
}

func TestTreeStrategyBranch4(t *testing.T) {
	a, err := TreeStrategy(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 4 + 16 nodes, 3 levels.
	if a.Rows() != 21 {
		t.Fatalf("rows = %d, want 21", a.Rows())
	}
	if got := mat.MaxColAbsSum(a); got != 3 {
		t.Fatalf("sensitivity %v, want 3", got)
	}
}

package mat

import (
	"math"
	"testing"
)

func TestTrace(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Trace(a); got != 5 {
		t.Fatalf("Trace = %v, want 5", got)
	}
}

func TestTraceNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Trace of non-square did not panic")
		}
	}()
	Trace(New(2, 3))
}

func TestFrobeniusNorm(t *testing.T) {
	a := FromRows([][]float64{{3, 4}})
	if got := FrobeniusNorm(a); math.Abs(got-5) > 1e-14 {
		t.Fatalf("FrobeniusNorm = %v, want 5", got)
	}
	if got := SquaredSum(a); got != 25 {
		t.Fatalf("SquaredSum = %v, want 25", got)
	}
}

func TestMaxColAbsSum(t *testing.T) {
	a := FromRows([][]float64{
		{1, -2, 0},
		{-1, 3, 0.5},
	})
	// Column sums: 2, 5, 0.5.
	if got := MaxColAbsSum(a); got != 5 {
		t.Fatalf("MaxColAbsSum = %v, want 5", got)
	}
	if got := MaxColAbsSum(New(0, 0)); got != 0 {
		t.Fatalf("MaxColAbsSum(empty) = %v", got)
	}
}

func TestMaxAbs(t *testing.T) {
	a := FromRows([][]float64{{1, -7}, {3, 2}})
	if got := MaxAbs(a); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, -4}
	if got := VecNorm2(x); math.Abs(got-5) > 1e-14 {
		t.Fatalf("VecNorm2 = %v", got)
	}
	if got := VecDot(x, []float64{1, 1}); got != -1 {
		t.Fatalf("VecDot = %v", got)
	}
}

func TestVecDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VecDot length mismatch did not panic")
		}
	}()
	VecDot([]float64{1}, []float64{1, 2})
}

func TestSpectralNormDiag(t *testing.T) {
	a := Diag([]float64{1, 9, 4})
	if got := SpectralNorm(a); math.Abs(got-9) > 1e-8 {
		t.Fatalf("SpectralNorm = %v, want 9", got)
	}
}

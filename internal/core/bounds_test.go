package core

import (
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

func TestBoundsPositiveAndCapped(t *testing.T) {
	// Lower is Lemma 4's form with its Ω constant dropped, so Upper >=
	// Lower is only guaranteed asymptotically; what the proof chain does
	// guarantee unconditionally is ApproxRatio <= TheoremTwoBound.
	src := rng.New(1)
	for _, w := range []*workload.Workload{
		workload.Related(20, 25, 4, src),
		workload.Range(30, 20, src),
		workload.Prefix(16),
		workload.Identity(10),
	} {
		b := AnalyzeBounds(w.W, 0.5)
		if b.Upper <= 0 || b.Lower <= 0 {
			t.Fatalf("%s: non-positive bounds %+v", w.Name, b)
		}
		if b.ApproxRatio > b.TheoremTwoBound()*(1+1e-9) {
			t.Fatalf("%s: ratio %v exceeds cap %v", w.Name, b.ApproxRatio, b.TheoremTwoBound())
		}
	}
}

func TestBoundsIdentityExact(t *testing.T) {
	// For W = I_n: all λ = 1, C = 1. Upper = 2n²/ε²;
	// Lower = (2ⁿ/n!)^{2/n}·n³/ε².
	n := 8
	eps := 1.0
	b := AnalyzeBounds(mat.Eye(n), eps)
	if b.Rank != n {
		t.Fatalf("rank = %d", b.Rank)
	}
	if math.Abs(b.ConditionNumber-1) > 1e-9 {
		t.Fatalf("C = %v", b.ConditionNumber)
	}
	wantUpper := 2 * float64(n) * float64(n)
	if math.Abs(b.Upper-wantUpper) > 1e-6*wantUpper {
		t.Fatalf("Upper = %v, want %v", b.Upper, wantUpper)
	}
	fact := 1.0
	for i := 2; i <= n; i++ {
		fact *= float64(i)
	}
	wantLower := math.Pow(math.Pow(2, float64(n))/fact, 2/float64(n)) * math.Pow(float64(n), 3)
	if math.Abs(b.Lower-wantLower) > 1e-6*wantLower {
		t.Fatalf("Lower = %v, want %v", b.Lower, wantLower)
	}
}

func TestBoundsEpsilonScaling(t *testing.T) {
	w := workload.Prefix(12).W
	b1 := AnalyzeBounds(w, 1)
	b01 := AnalyzeBounds(w, 0.1)
	if math.Abs(b01.Upper/b1.Upper-100) > 1e-6 {
		t.Fatal("Upper does not scale as 1/ε²")
	}
	if math.Abs(b01.Lower/b1.Lower-100) > 1e-6 {
		t.Fatal("Lower does not scale as 1/ε²")
	}
}

func TestTheoremTwoBoundHolds(t *testing.T) {
	// For r > 5 the approximation ratio obeys Theorem 2's cap.
	src := rng.New(2)
	for _, w := range []*workload.Workload{
		workload.Related(30, 30, 8, src),
		workload.Prefix(20),
		workload.Identity(12),
	} {
		b := AnalyzeBounds(w.W, 1)
		if b.Rank <= 5 {
			continue
		}
		if cap := b.TheoremTwoBound(); b.ApproxRatio > cap*(1+1e-9) {
			t.Fatalf("%s: ratio %v exceeds Theorem 2 cap %v", w.Name, b.ApproxRatio, cap)
		}
	}
}

func TestTheoremTwoTightWhenCIsOne(t *testing.T) {
	// With C = 1 (identity), the ratio equals the cap exactly (the
	// proof's inequalities are tight).
	b := AnalyzeBounds(mat.Eye(10), 1)
	if math.Abs(b.ApproxRatio-b.TheoremTwoBound()) > 1e-6*b.ApproxRatio {
		t.Fatalf("ratio %v != cap %v despite C=1", b.ApproxRatio, b.TheoremTwoBound())
	}
}

func TestLRMWithinUpperBound(t *testing.T) {
	// Lemma 3: the optimized decomposition's error is at most the bound
	// attained by the SVD-based feasible point.
	src := rng.New(3)
	w := workload.Related(18, 22, 3, src).W
	d, err := Decompose(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eps := 1.0
	b := AnalyzeBounds(w, eps)
	if got := d.ExpectedSSE(eps); got > b.Upper*(1+1e-6) {
		t.Fatalf("LRM SSE %v exceeds Lemma 3 bound %v", got, b.Upper)
	}
}

func TestBoundsZeroMatrix(t *testing.T) {
	b := AnalyzeBounds(mat.New(4, 4), 1)
	if b.Rank != 0 || b.Upper != 0 {
		t.Fatalf("zero workload bounds: %+v", b)
	}
	if b.TheoremTwoBound() != 0 {
		t.Fatal("TheoremTwoBound nonzero for rank 0")
	}
}

package core

import (
	"math"

	"lrm/internal/mat"
)

// Bounds collects the paper's optimality analysis (Section 4.1) for a
// workload matrix: the upper bound on LRM's error (Lemma 3), Lemma 4's
// asymptotic form, Ω constant dropped: not a valid lower bound (on real
// workloads LRM's error falls well below it), and their ratio
// (Theorem 2).
type Bounds struct {
	// Rank is the numerical rank r of the workload.
	Rank int
	// Singular values λ₁ ≥ … ≥ λ_r of the workload (nonzero part).
	Eigenvalues []float64
	// ConditionNumber is C = λ₁/λ_r.
	ConditionNumber float64
	// Upper is Lemma 3's bound: 2·r·Σλ_k²/ε² (the factor 2 is the Laplace
	// variance, carried explicitly here).
	Upper float64
	// Lower is Lemma 4's asymptotic form, Ω constant dropped: not a valid
	// lower bound. It evaluates (2^r/r!·Πλ_k)^{2/r}·r³/ε² in log space to
	// avoid overflow.
	Lower float64
	// ApproxRatio is Upper/Lower, which Theorem 2 bounds by O(C²r) for
	// r > 5. Lower is Lemma 4's asymptotic form, Ω constant dropped: not a
	// valid lower bound, so this is not an approximation ratio of LRM and
	// can fall below 1.
	ApproxRatio float64
}

// AnalyzeBounds computes Lemma 3's upper bound, Lemma 4's asymptotic
// form (Ω constant dropped: not a valid lower bound) and their ratio for
// workload w at privacy budget eps.
func AnalyzeBounds(w *mat.Dense, eps float64) *Bounds {
	svd := mat.FactorSVD(w)
	r := svd.Rank()
	b := &Bounds{Rank: r}
	if r == 0 {
		return b
	}
	b.Eigenvalues = append([]float64(nil), svd.S[:r]...)
	b.ConditionNumber = svd.S[0] / svd.S[r-1]

	var sumSq float64
	var sumLog float64
	for _, lam := range b.Eigenvalues {
		sumSq += lam * lam
		sumLog += math.Log(lam)
	}
	rf := float64(r)
	b.Upper = 2 * rf * sumSq / (eps * eps)

	// (2^r/r!·Πλ)^{2/r}·r³/ε² in log space:
	// exp((2/r)·(r·ln2 − lnΓ(r+1) + Σlnλ))·r³/ε².
	lgamma, _ := math.Lgamma(rf + 1)
	logVol := rf*math.Ln2 - lgamma + sumLog
	b.Lower = math.Exp(2/rf*logVol) * rf * rf * rf / (eps * eps)

	if b.Lower > 0 {
		b.ApproxRatio = b.Upper / b.Lower
	} else {
		b.ApproxRatio = math.Inf(1)
	}
	return b
}

// TheoremTwoBound returns the paper's O(C²r) cap on the approximation
// ratio in the exact intermediate form of the proof's chain:
//
//	Upper/Lower ≤ 2·C² / ((2^r/r!)^{2/r}·r)
//
// (the leading 2 is the Laplace variance carried in Upper). The proof
// then bounds (2^r/r!)^{2/r} ≥ (4/r)² for r > 5, giving the headline
// O(C²·r). The chain's inequalities are tight exactly when C = 1.
func (b *Bounds) TheoremTwoBound() float64 {
	if b.Rank == 0 {
		return 0
	}
	rf := float64(b.Rank)
	lgamma, _ := math.Lgamma(rf + 1)
	logFactor := (2 / rf) * (rf*math.Ln2 - lgamma)
	return 2 * b.ConditionNumber * b.ConditionNumber / (math.Exp(logFactor) * rf)
}

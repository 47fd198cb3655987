package compress

import (
	"fmt"
	"math"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/transform"
)

// Synopsis is the compressive-mechanism pipeline for one domain size: a
// fixed Gaussian measurement matrix Φ (k×n) plus the Haar dictionary
// A = Φ·Ψ used for sparse recovery. Build it once per domain with
// NewSynopsis; it can then compress and reconstruct many histograms.
//
// The measurement matrix is data-independent, so publishing it (or its
// seed) costs no privacy.
type Synopsis struct {
	n, k int
	phi  *mat.Dense // k×n measurement matrix, entries N(0, 1/k)
	dict *mat.Dense // k×n dictionary Φ·Ψ in the Haar basis
	sens float64    // L1 sensitivity of x ↦ Φx: max column abs sum of Φ
}

// NewSynopsis builds a synopsis for histograms of length n (a power of
// two, for the Haar dictionary) using k Gaussian measurements. The seed
// fixes Φ so releases are reproducible.
func NewSynopsis(n, k int, seed int64) (*Synopsis, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("compress: domain %d must be a power of two", n)
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("compress: measurements k=%d out of range [1,%d]", k, n)
	}
	src := rng.New(seed)
	phi := mat.New(k, n)
	sigma := 1 / math.Sqrt(float64(k))
	data := phi.RawData()
	for i := range data {
		data[i] = src.Normal() * sigma
	}
	// Dictionary row i = Haar(Φ row i): (Φ·Ψ)ᵢ· = Ψᵀ·Φᵢ·, and Ψᵀ is the
	// forward Haar transform.
	dict := mat.New(k, n)
	for i := 0; i < k; i++ {
		dict.SetRow(i, transform.Haar(phi.RawRow(i)))
	}
	return &Synopsis{n: n, k: k, phi: phi, dict: dict, sens: mat.MaxColAbsSum(phi)}, nil
}

// Measurements returns k, the synopsis length.
func (s *Synopsis) Measurements() int { return s.k }

// Domain returns n.
func (s *Synopsis) Domain() int { return s.n }

// Sensitivity returns the L1 sensitivity of the measurement map x ↦ Φx:
// the largest column absolute sum of Φ. With k measurements of variance
// 1/k it concentrates around k·E|N(0,1/k)| ≈ √(2k/π).
func (s *Synopsis) Sensitivity() float64 { return s.sens }

// Compress returns the noisy ε-DP synopsis y = Φx + Lap(Δ/ε)^k.
func (s *Synopsis) Compress(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if len(x) != s.n {
		return nil, fmt.Errorf("compress: data length %d != domain %d", len(x), s.n)
	}
	y := mat.MulVec(s.phi, x)
	if err := privacy.AddLaplaceNoise(y, s.sens, eps, src); err != nil {
		return nil, err
	}
	return y, nil
}

// Reconstruct recovers a histogram estimate from a (possibly noisy)
// synopsis by OMP in the Haar basis with at most sparsity atoms. tol
// stops recovery early once the residual is below it; pass 0 to always
// use the full atom budget.
func (s *Synopsis) Reconstruct(y []float64, sparsity int, tol float64) ([]float64, error) {
	if len(y) != s.k {
		return nil, fmt.Errorf("compress: synopsis length %d != k %d", len(y), s.k)
	}
	if sparsity < 1 {
		sparsity = s.k / 4
		if sparsity < 1 {
			sparsity = 1
		}
	}
	res, err := OMP(s.dict, y, sparsity, tol)
	if err != nil {
		return nil, err
	}
	return transform.IHaar(res.Expand(s.n)), nil
}

// MeasureExact returns the noiseless measurement Φx (used by tests and
// for offline tuning on public data).
func (s *Synopsis) MeasureExact(x []float64) ([]float64, error) {
	if len(x) != s.n {
		return nil, fmt.Errorf("compress: data length %d != domain %d", len(x), s.n)
	}
	return mat.MulVec(s.phi, x), nil
}

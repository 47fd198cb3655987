package mat

import (
	"fmt"
	"math"

	"lrm/internal/rng"
)

// RandSVDOptions tunes the randomized SVD.
type RandSVDOptions struct {
	// Oversample adds extra random probe columns beyond the target rank;
	// zero means the standard 10.
	Oversample int
	// PowerIters runs q rounds of the power scheme (A·Aᵀ)^q·A·Ω, which
	// sharpens the spectrum when singular values decay slowly; zero means
	// 2.
	PowerIters int
	// Seed fixes the Gaussian probe matrix.
	Seed int64
}

// RandSVD computes an approximate truncated SVD A ≈ U·diag(S)·Vᵀ with at
// most k components, using the Gaussian range finder of Halko, Martinsson
// and Tropp (2011). For matrices of numerical rank ≤ k the result matches
// the exact SVD to machine precision with high probability; for general
// matrices it captures the dominant k-dimensional subspace.
//
// The low-rank workloads that LRM exploits (WRelated is s ≪ min(m,n) by
// construction) are exactly the regime where this is much cheaper than
// the full Jacobi SVD: O(mn(k+p)) instead of O(sweeps·mn·min(m,n)).
func RandSVD(a *Dense, k int, opt RandSVDOptions) (*SVD, error) {
	m, n := a.Dims()
	if k < 1 {
		return nil, fmt.Errorf("mat: RandSVD target rank %d must be >= 1", k)
	}
	minDim := m
	if n < minDim {
		minDim = n
	}
	if k > minDim {
		k = minDim
	}
	p := opt.Oversample
	if p == 0 {
		p = 10
	}
	if p < 0 {
		return nil, fmt.Errorf("mat: negative oversample %d", p)
	}
	q := opt.PowerIters
	if q == 0 {
		q = 2
	}
	if q < 0 {
		return nil, fmt.Errorf("mat: negative power iterations %d", q)
	}
	l := k + p
	if l > minDim {
		l = minDim
	}
	src := rng.New(opt.Seed)
	omega := New(n, l)
	for i := range omega.data {
		omega.data[i] = src.Normal()
	}
	// Range finder with power iterations, re-orthonormalizing between
	// applications to avoid losing small singular directions.
	y := Mul(a, omega) // m×l
	qm := orthonormalize(y)
	for iter := 0; iter < q; iter++ {
		z := MulAtB(a, qm) // n×l
		qz := orthonormalize(z)
		y = Mul(a, qz)
		qm = orthonormalize(y)
	}
	// Project: B = Qᵀ·A is l×n; its exact SVD is cheap.
	b := MulAtB(qm, a)
	s := FactorSVD(b)
	u := Mul(qm, s.U)
	// Truncate to k components.
	if len(s.S) > k {
		s.S = s.S[:k]
		u = u.Slice(0, m, 0, k)
		s.V = s.V.Slice(0, n, 0, k)
	}
	return &SVD{U: u, S: s.S, V: s.V}, nil
}

// orthonormalize returns an orthonormal basis for the column space of a
// (m×l, m ≥ l assumed in intent; rank-deficient columns are replaced by
// zeros and dropped from spans implicitly). Modified Gram-Schmidt with
// one re-orthogonalization pass — adequate for the well-conditioned
// probe products that arise in the randomized range finder.
func orthonormalize(a *Dense) *Dense {
	m, l := a.Dims()
	out := a.Clone()
	cols := make([][]float64, l)
	for j := 0; j < l; j++ {
		cols[j] = out.Col(j)
	}
	for j := 0; j < l; j++ {
		cj := cols[j]
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				ci := cols[i]
				var dot float64
				for t := 0; t < m; t++ {
					dot += ci[t] * cj[t]
				}
				for t := 0; t < m; t++ {
					cj[t] -= dot * ci[t]
				}
			}
		}
		var norm float64
		for _, v := range cj {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm <= 1e-14 {
			for t := range cj {
				cj[t] = 0
			}
			continue
		}
		for t := range cj {
			cj[t] /= norm
		}
	}
	for j := 0; j < l; j++ {
		out.SetCol(j, cols[j])
	}
	return out
}

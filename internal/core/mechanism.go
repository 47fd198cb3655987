package core

import (
	"errors"
	"fmt"
	"sync"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
)

// Mechanism is the Low-Rank Mechanism of Eq. (6): given W ≈ B·L, release
//
//	M(Q,D) = B·(L·x + Lap(Δ(B,L)/ε)^r)
//
// which satisfies ε-differential privacy because L·x is a linear query
// batch of sensitivity Δ(B,L) and post-processing by B is free.
type Mechanism struct {
	d *Decomposition
	// delta caches Δ(B,L): the decomposition is immutable once wrapped,
	// and recomputing the column scan on every Answer call would dominate
	// the O(r·(n+m)) answering cost itself.
	delta float64
	// scratch pools the r-length intermediate buffer so concurrent
	// Answer calls (the evaluation harness fans trials across goroutines)
	// each reuse one instead of allocating twice per call.
	scratch sync.Pool
}

// NewMechanism wraps a decomposition as a query-answering mechanism. The
// decomposition must not be mutated afterwards (its sensitivity is
// cached).
func NewMechanism(d *Decomposition) (*Mechanism, error) {
	if d == nil || d.B == nil || d.L == nil {
		return nil, errors.New("core: nil decomposition")
	}
	if d.B.Cols() != d.L.Rows() {
		return nil, fmt.Errorf("core: decomposition shape mismatch %d×%d · %d×%d",
			d.B.Rows(), d.B.Cols(), d.L.Rows(), d.L.Cols())
	}
	r := d.L.Rows()
	m := &Mechanism{d: d, delta: d.Sensitivity()}
	m.scratch.New = func() any {
		buf := make([]float64, r)
		return &buf
	}
	return m, nil
}

// Answer releases ε-differentially-private answers to the workload on the
// histogram x. The only per-call allocation is the returned answer slice.
func (m *Mechanism) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if len(x) != m.d.L.Cols() {
		return nil, fmt.Errorf("core: data length %d != domain %d", len(x), m.d.L.Cols())
	}
	bufp := m.scratch.Get().(*[]float64)
	y := *bufp // L·x, then its noisy release, r-length
	mat.MulVecTo(y, m.d.L, x)
	if err := privacy.AddLaplaceNoise(y, m.delta, eps, src); err != nil {
		m.scratch.Put(bufp)
		return nil, err
	}
	out := mat.MulVecTo(make([]float64, m.d.B.Rows()), m.d.B, y)
	m.scratch.Put(bufp)
	return out, nil
}

// AnswerMany releases ε-differentially-private answers for a whole batch
// of histograms at once: x is n×B with one histogram per column, and the
// result is m×B with the corresponding releases as columns. The two
// dense products run as packed multi-RHS GEMMs (mat.MulEpiTo) instead
// of 2·B mat-vecs — the low-rank factors are packed once per batch and
// streamed through register-blocked kernels — which is where the
// mechanism's batch framing pays off at serving scale.
//
// The Laplace perturbation is fused into the first product: the noise
// block is pre-drawn from the sequential stream and mixed into y = L·x
// inside the GEMM's own output tiles (noiseFusedProduct), so the
// intermediate is swept exactly once instead of getting a second
// gather/noise/scatter pass after the product.
//
// The release draws the same noise as calling Answer on each column in
// ascending order with the same source, column by column in the order
// the loop would draw it, so each column equals the loop's to within
// floating-point rounding: the GEMM kernel may round a product
// differently from Answer's mat-vec, which is post-processing of the
// noisy y and does not touch the ε-DP guarantee. A single column runs
// the mat-vec itself and is bit-identical to Answer.
func (m *Mechanism) AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if x == nil || x.Rows() != m.d.L.Cols() {
		rows := -1
		if x != nil {
			rows = x.Rows()
		}
		return nil, fmt.Errorf("core: data matrix has %d rows, domain is %d", rows, m.d.L.Cols())
	}
	if x.Cols() == 0 {
		return nil, errors.New("core: AnswerMany with no data columns")
	}
	cols := x.Cols()
	y := mat.New(m.d.L.Rows(), cols)
	if err := m.noiseFusedProduct(y, x, eps, src); err != nil {
		return nil, err
	}
	return mat.MulEpiTo(mat.New(m.d.B.Rows(), cols), m.d.B, y, nil), nil
}

// noiseFusedProduct computes y = L·x and perturbs every element with
// Laplace noise of scale Δ(B,L)/ε in one pass: the noise block is drawn
// up front — column by column in ascending order, exactly the draw
// sequence a loop of per-column Answer calls sharing one source would
// produce, which the BatchAnswerer contract requires — and added inside
// the GEMM's per-tile epilogue while each output block is still
// cache-hot. The epilogue touches disjoint rectangles exactly once
// each and adds values that do not depend on tile order, so the result
// is bit-identical across worker counts and asm kernel tiers, per the
// MulEpiTo contract.
//
// The noise buffer is column-major (column j at noise[j·r : (j+1)·r]) so
// one pre-draw over the whole block fills it in stream order.
//
//lrm:sanitizer y — every element of y is Laplace-perturbed before return
func (m *Mechanism) noiseFusedProduct(y, x *mat.Dense, eps privacy.Epsilon, src *rng.Source) error {
	r, cols := y.Rows(), y.Cols()
	noise := make([]float64, r*cols)
	if err := privacy.DrawLaplaceNoise(noise, m.delta, eps, src); err != nil {
		return err
	}
	yd, yc := y.RawData(), y.Cols()
	mat.MulEpiTo(y, m.d.L, x, func(r0, r1, c0, c1 int) {
		for i := r0; i < r1; i++ {
			row := yd[i*yc : i*yc+yc]
			for j := c0; j < c1; j++ {
				row[j] += noise[j*r+i]
			}
		}
	})
	return nil
}

// ExpectedSSE returns the analytic expected sum of squared errors
// (Lemma 1), excluding structural error from a relaxed decomposition.
func (m *Mechanism) ExpectedSSE(eps privacy.Epsilon) float64 {
	return m.d.ExpectedSSE(float64(eps))
}

// Decomposition returns the underlying factorization.
func (m *Mechanism) Decomposition() *Decomposition { return m.d }

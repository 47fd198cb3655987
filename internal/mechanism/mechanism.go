// Package mechanism implements every query-answering mechanism evaluated
// in the paper's Section 6: the Laplace mechanism on data (LM), noise on
// results (NOR), the wavelet mechanism (WM, Privelet), the hierarchical
// mechanism (HM, Boost with consistency), the matrix mechanism (MM,
// Appendix B), and an adapter for the Low-Rank Mechanism itself — all
// behind one interface so the experiment harness treats them uniformly.
package mechanism

import (
	"math"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Mechanism prepares workload-specific state (e.g. a strategy matrix)
// once, after which the returned Prepared can answer many times cheaply.
type Mechanism interface {
	// Name is the short label used in the paper's figures (LM, WM, …).
	Name() string
	// Prepare performs the workload-dependent optimization/setup.
	Prepare(w *workload.Workload) (Prepared, error)
}

// Prepared answers a fixed workload under ε-differential privacy.
type Prepared interface {
	// Answer releases private answers for the histogram x.
	Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error)
	// ExpectedSSE returns the analytic expected sum of squared errors at
	// eps, or NaN when no closed form is implemented.
	ExpectedSSE(eps privacy.Epsilon) float64
}

// BatchAnswerer is the optional multi-RHS extension of Prepared: a
// mechanism whose answering cost is dominated by dense matrix-vector
// products can answer a whole batch of data vectors through one packed
// multi-RHS product (mat.MulEpiTo) instead of a loop of mat-vecs, which
// is where the paper's "optimize once, answer a batch" framing actually
// pays at serving scale.
//
// The contract: AnswerMany(X, eps, src) draws exactly the noise the loop
//
//	for j := range columns of X { Answer(X column j, eps, src) }
//
// would draw with the same source, in the same order, and each released
// column equals the loop's to within floating-point rounding. The GEMM
// kernel may round a product differently from the loop's mat-vec; every
// product after the noise is post-processing, so that never touches the
// ε-DP guarantee. A single-column batch is bit-identical to Answer, and
// the same source state gives the same bits on every call. Callers (the
// engine's batched path, the contract tests) rely on batching being a
// throughput optimization, never a change in the noise released.
// Implementations get this by computing their dense products with
// mat.MulEpiTo and drawing their per-column noise with
// privacy.AddLaplaceNoiseCols, which draws in ascending column order.
type BatchAnswerer interface {
	// AnswerMany releases private answers for the n×B matrix X whose
	// columns are B histograms, returning the m×B matrix whose columns
	// are the corresponding releases.
	AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error)
}

// NoAnalyticSSE is returned by mechanisms without a closed-form error.
func NoAnalyticSSE() float64 { return math.NaN() }

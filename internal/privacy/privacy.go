// Package privacy provides the ε-differential-privacy primitives shared by
// all mechanisms: privacy budgets, L1 sensitivity of a linear query matrix,
// the Laplace mechanism on a vector of exact answers, and composition
// accounting.
//
// It is the only package that draws release noise. Every mechanism
// computes its exact values (L·x, wavelet coefficients, subtree or bucket
// sums, Φx) and perturbs them through LaplaceMechanism, AddLaplaceNoise,
// AddLaplaceNoiseCols or DrawLaplaceNoise, so the scale and the order of
// the draws are decided here once. The lint suite keeps it that way:
// noiserand flags a (*rng.Source).Laplace call anywhere else, and
// noiseflow checks each mechanism's path from raw counts to release
// instead of trusting a per-mechanism //lrm:sanitizer declaration.
//
// Throughout the repository, the database is a histogram x ∈ ℝⁿ of unit
// counts and neighboring databases differ by ±1 in a single coordinate, so
// the sensitivity of the identity workload is 1 and the sensitivity of a
// query matrix A is its maximum column L1 norm (the paper's Section 3).
package privacy

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"lrm/internal/mat"
	"lrm/internal/rng"
)

// ErrBudgetExhausted is returned when a Budget cannot cover a requested
// spend.
var ErrBudgetExhausted = errors.New("privacy: budget exhausted")

// Epsilon is a privacy budget value. Smaller is more private.
type Epsilon float64

// Validate returns an error unless e is strictly positive and finite.
func (e Epsilon) Validate() error {
	if !(e > 0) || e > 1e12 {
		return fmt.Errorf("privacy: invalid epsilon %v", float64(e))
	}
	return nil
}

// Budget tracks sequential composition: spends accumulate and may not
// exceed the total. The zero value is an empty budget.
//
// A Budget is safe for concurrent use: Spend performs its check-then-add
// under a mutex, so the sum of all successful spends never exceeds the
// total (up to budgetSlack, below) no matter how many goroutines spend
// concurrently. This is a privacy guarantee, not just data-race hygiene —
// an unsynchronized check-then-add would let two racing spenders both
// pass the check and jointly exceed ε.
type Budget struct {
	mu    sync.Mutex
	total Epsilon // immutable after NewBudget
	//lrm:guardedby mu
	spent Epsilon
}

// budgetSlack is the relative tolerance Spend allows for floating-point
// accumulation error: a spend is admitted while spent+eps ≤ total·(1+slack).
// The slack must scale with the total — an absolute slack both rejects
// legitimate final spends on large totals (where rounding error across
// many additions exceeds any fixed constant) and admits real overspends
// near tiny ones (where a fixed constant dwarfs the budget itself).
const budgetSlack = 1e-12

// NewBudget returns a budget with the given total ε.
func NewBudget(total Epsilon) (*Budget, error) {
	if err := total.Validate(); err != nil {
		return nil, err
	}
	return &Budget{total: total}, nil
}

// Spend consumes eps from the budget, or returns ErrBudgetExhausted. It is
// atomic: either the full eps is reserved or nothing is.
func (b *Budget) Spend(eps Epsilon) error {
	if err := eps.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if float64(b.spent)+float64(eps) > float64(b.total)*(1+budgetSlack) {
		return fmt.Errorf("%w: spent %v + requested %v > total %v",
			ErrBudgetExhausted, float64(b.spent), float64(eps), float64(b.total))
	}
	b.spent += eps
	return nil
}

// canSpend reports whether a Spend of eps would currently be admitted,
// without committing it. The accountant uses it to order its WAL append
// between the admission check and the grant: refused spends must not
// reach the log, or every rejected request would inflate the durable
// count.
func (b *Budget) canSpend(eps Epsilon) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return float64(b.spent)+float64(eps) <= float64(b.total)*(1+budgetSlack)
}

// restoredBudget returns a budget whose spent amount was replayed from
// durable state. Unlike live spending, spent may exceed total: crash
// recovery over-counts but never refunds, so a budget can come back
// already beyond its cap and must simply refuse everything.
func restoredBudget(total, spent Epsilon) *Budget {
	return &Budget{total: total, spent: spent}
}

// Remaining returns the unspent budget.
func (b *Budget) Remaining() Epsilon {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.total - b.spent
}

// Spent returns the budget consumed so far.
func (b *Budget) Spent() Epsilon {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spent
}

// Total returns the full budget.
func (b *Budget) Total() Epsilon { return b.total }

// Sensitivity returns the L1 sensitivity of the linear query matrix A over
// unit-count histograms: max_j Σ_i |A_ij| (Eq. 2 specialized to linear
// queries, as in Section 3.2 of the paper).
func Sensitivity(a *mat.Dense) float64 {
	return mat.MaxColAbsSum(a)
}

// LaplaceMechanism perturbs the exact answers with i.i.d. Laplace noise of
// scale sensitivity/ε, the generic ε-DP release of Dwork et al. (Eq. 3).
// It returns a fresh slice.
//
//lrm:sanitizer — the returned slice is the ε-DP release of exact
func LaplaceMechanism(exact []float64, sensitivity float64, eps Epsilon, src *rng.Source) ([]float64, error) {
	out := make([]float64, len(exact))
	copy(out, exact)
	if err := AddLaplaceNoise(out, sensitivity, eps, src); err != nil {
		return nil, err
	}
	return out, nil
}

// AddLaplaceNoise perturbs vals in place with i.i.d. Laplace noise of
// scale sensitivity/ε — the allocation-free core of LaplaceMechanism for
// hot answering paths that own their buffers.
//
//lrm:sanitizer vals — Laplace draws are mixed into vals in place
func AddLaplaceNoise(vals []float64, sensitivity float64, eps Epsilon, src *rng.Source) error {
	if err := eps.Validate(); err != nil {
		return err
	}
	if sensitivity < 0 {
		return fmt.Errorf("privacy: negative sensitivity %v", sensitivity)
	}
	noiseSweeps.Add(1)
	scale := sensitivity / float64(eps)
	for i := range vals {
		vals[i] += src.Laplace(scale)
	}
	return nil
}

// DrawLaplaceNoise fills dst with i.i.d. Laplace draws of scale
// sensitivity/ε, overwriting its contents, with exactly the validation
// and draw sequence of AddLaplaceNoise (dst[i] gets the i-th draw from
// src). It exists for fused answering paths that pre-draw a whole noise
// block from the sequential stream and then mix it into answers inside
// the GEMM's output tiles (core.Mechanism.AnswerMany): the draws stay in
// stream order even though the additions happen tile by tile.
//
//lrm:sanitizer dst — dst is overwritten with pure Laplace noise
func DrawLaplaceNoise(dst []float64, sensitivity float64, eps Epsilon, src *rng.Source) error {
	if err := eps.Validate(); err != nil {
		return err
	}
	if sensitivity < 0 {
		return fmt.Errorf("privacy: negative sensitivity %v", sensitivity)
	}
	scale := sensitivity / float64(eps)
	for i := range dst {
		dst[i] = src.Laplace(scale)
	}
	return nil
}

// AddLaplaceNoiseCols perturbs the r×B matrix y in place with Laplace
// noise of scale sensitivity/ε, drawing column by column in ascending
// column order — the draw order a loop of per-column Answer calls sharing
// one source would produce, which the batch answering contract requires.
// The gather/scatter through buf keeps the draws flowing through the
// exact same AddLaplaceNoise code path (scale computation, validation) as
// the single-vector answering paths.
//
//lrm:sanitizer y — every column is Laplace-perturbed in place
func AddLaplaceNoiseCols(y *mat.Dense, sensitivity float64, eps Epsilon, src *rng.Source) error {
	r, cols := y.Dims()
	buf := make([]float64, r)
	for j := 0; j < cols; j++ {
		for i := 0; i < r; i++ {
			buf[i] = y.At(i, j)
		}
		if err := AddLaplaceNoise(buf, sensitivity, eps, src); err != nil {
			return err
		}
		y.SetCol(j, buf)
	}
	return nil
}

// noiseSweeps counts AddLaplaceNoise calls process-wide. Together with
// mat.FusedEpilogueRuns it lets tests pin the one-pass property of the
// fused answering path: a batch release that fuses its noise into the
// GEMM epilogue must not also make a separate AddLaplaceNoise sweep over
// the intermediate.
var noiseSweeps atomic.Uint64

// NoiseSweeps returns the number of separate in-place noise sweeps
// (AddLaplaceNoise calls) performed by this process so far.
func NoiseSweeps() uint64 { return noiseSweeps.Load() }

// LaplaceExpectedSSE returns the expected sum of squared errors of the
// Laplace mechanism on m answers: 2·m·(sensitivity/ε)². Each Laplace
// variable of scale s has variance 2s².
func LaplaceExpectedSSE(m int, sensitivity float64, eps Epsilon) float64 {
	s := sensitivity / float64(eps)
	return 2 * float64(m) * s * s
}

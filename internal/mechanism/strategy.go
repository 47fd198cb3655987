package mechanism

import (
	"fmt"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// StrategyPrepared answers a workload through an explicit strategy matrix
// A: release ŷ = A·x + Lap(Δ_A/ε), estimate x̂ = A⁺·ŷ by least squares,
// and answer W·x̂. This is the matrix-mechanism template that WM, HM and
// MM all instantiate (the specialized implementations below use O(n log n)
// transforms instead of the dense pseudo-inverse, but agree with this
// form — tests verify that).
type StrategyPrepared struct {
	w     *workload.Workload
	a     *mat.Dense
	apinv *mat.Dense
	delta float64
}

// NewStrategyPrepared builds the generic strategy mechanism for workload
// w with strategy a.
func NewStrategyPrepared(w *workload.Workload, a *mat.Dense) (*StrategyPrepared, error) {
	if a.Cols() != w.Domain() {
		return nil, fmt.Errorf("mechanism: strategy has %d columns, workload domain is %d", a.Cols(), w.Domain())
	}
	delta := privacy.Sensitivity(a)
	if delta == 0 {
		return nil, fmt.Errorf("mechanism: zero strategy matrix")
	}
	return &StrategyPrepared{w: w, a: a, apinv: mat.PseudoInverse(a), delta: delta}, nil
}

// Strategy returns the strategy matrix.
func (p *StrategyPrepared) Strategy() *mat.Dense { return p.a }

// Answer implements Prepared.
func (p *StrategyPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if len(x) != p.w.Domain() {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.w.Domain())
	}
	noisy, err := privacy.LaplaceMechanism(mat.MulVec(p.a, x), p.delta, eps, src)
	if err != nil {
		return nil, err
	}
	xhat := mat.MulVec(p.apinv, noisy)
	return p.w.Answer(xhat), nil
}

// AnswerMany implements BatchAnswerer: the three dense products of the
// strategy template (A·X, A⁺·Ỹ, W·X̂) each run as one packed multi-RHS
// GEMM over the whole batch instead of B mat-vecs, with the per-column
// noise drawn in ascending column order. Since WM, HM and MM all
// instantiate this template (or agree with it), they batch for free.
func (p *StrategyPrepared) AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := checkBatchShape(x, p.w.Domain()); err != nil {
		return nil, err
	}
	cols := x.Cols()
	noisy := mat.MulEpiTo(mat.New(p.a.Rows(), cols), p.a, x, nil)
	if err := privacy.AddLaplaceNoiseCols(noisy, p.delta, eps, src); err != nil {
		return nil, err
	}
	xhat := mat.MulEpiTo(mat.New(p.apinv.Rows(), cols), p.apinv, noisy, nil)
	return mat.MulEpiTo(mat.New(p.w.Queries(), cols), p.w.W, xhat, nil), nil
}

// ExpectedSSE implements Prepared: the error is W·A⁺·noise, so the SSE is
// 2·(Δ_A/ε)²·‖W·A⁺‖_F².
func (p *StrategyPrepared) ExpectedSSE(eps privacy.Epsilon) float64 {
	wap := mat.Mul(p.w.W, p.apinv)
	s := p.delta / float64(eps)
	return 2 * s * s * mat.SquaredSum(wap)
}

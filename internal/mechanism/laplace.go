package mechanism

import (
	"fmt"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// LaplaceData is the paper's LM baseline (noise on data, Section 3.2's
// M_D): perturb each unit count with Lap(1/ε) and answer W·x′. Its
// expected SSE is 2·ΣWᵢⱼ²/ε².
type LaplaceData struct{}

// Name implements Mechanism.
func (LaplaceData) Name() string { return "LM" }

// Prepare implements Mechanism.
func (LaplaceData) Prepare(w *workload.Workload) (Prepared, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	return &laplaceDataPrepared{w: w}, nil
}

type laplaceDataPrepared struct {
	w *workload.Workload
}

func (p *laplaceDataPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if len(x) != p.w.Domain() {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.w.Domain())
	}
	// Unit-count histogram: the identity workload has sensitivity 1.
	noisy, err := privacy.LaplaceMechanism(x, 1, eps, src)
	if err != nil {
		return nil, err
	}
	return mat.MulVec(p.w.W, noisy), nil
}

// AnswerMany implements BatchAnswerer: the unit counts of every column
// are perturbed (column-major draw order), then all B noisy histograms
// are pushed through W in one packed multi-RHS product.
func (p *laplaceDataPrepared) AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := checkBatchShape(x, p.w.Domain()); err != nil {
		return nil, err
	}
	noisy := x.Clone()
	if err := privacy.AddLaplaceNoiseCols(noisy, 1, eps, src); err != nil {
		return nil, err
	}
	return mat.MulEpiTo(mat.New(p.w.Queries(), x.Cols()), p.w.W, noisy, nil), nil
}

func (p *laplaceDataPrepared) ExpectedSSE(eps privacy.Epsilon) float64 {
	e := float64(eps)
	return 2 * mat.SquaredSum(p.w.W) / (e * e)
}

// LaplaceResults is the noise-on-results baseline (Section 3.2's M_R,
// the intro's NOQ): answer W·x + Lap(Δ/ε)^m with Δ the workload
// sensitivity. Its expected SSE is 2·m·Δ²/ε².
type LaplaceResults struct{}

// Name implements Mechanism.
func (LaplaceResults) Name() string { return "NOR" }

// Prepare implements Mechanism.
func (LaplaceResults) Prepare(w *workload.Workload) (Prepared, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	return &laplaceResultsPrepared{w: w, delta: w.Sensitivity()}, nil
}

type laplaceResultsPrepared struct {
	w     *workload.Workload
	delta float64
}

func (p *laplaceResultsPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if len(x) != p.w.Domain() {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.w.Domain())
	}
	return privacy.LaplaceMechanism(p.w.Answer(x), p.delta, eps, src)
}

// AnswerMany implements BatchAnswerer: one packed multi-RHS product
// computes every column's exact answers, then Laplace noise is applied
// per column in ascending order.
func (p *laplaceResultsPrepared) AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := checkBatchShape(x, p.w.Domain()); err != nil {
		return nil, err
	}
	out := mat.MulEpiTo(mat.New(p.w.Queries(), x.Cols()), p.w.W, x, nil)
	if err := privacy.AddLaplaceNoiseCols(out, p.delta, eps, src); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *laplaceResultsPrepared) ExpectedSSE(eps privacy.Epsilon) float64 {
	e := float64(eps)
	return 2 * float64(p.w.Queries()) * p.delta * p.delta / (e * e)
}

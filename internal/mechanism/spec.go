package mechanism

import (
	"fmt"

	"lrm/internal/core"
	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// SpecPreparer is the implicit-workload extension of Mechanism: prepare
// against a workload.Spec — answers, sensitivity, and Gram products by
// structure — without the matrix W ever existing. stats, when non-nil,
// carries a prior AnalyzeSpec result the preparer may reuse; nil means
// the preparer derives what it needs from the spec alone.
type SpecPreparer interface {
	PrepareSpec(s workload.Spec, stats *workload.Stats) (Prepared, error)
}

// PrepareSpec prepares m against an implicit spec when it can. Dense
// adapters (workload.AsSpec) always work — they unwrap to the matrix
// path. Otherwise the mechanism must implement SpecPreparer, or the
// caller gets an error telling it to materialize.
func PrepareSpec(m Mechanism, s workload.Spec, stats *workload.Stats) (Prepared, error) {
	if s == nil {
		return nil, fmt.Errorf("mechanism: nil spec")
	}
	if d, ok := s.(*workload.DenseSpec); ok {
		return m.Prepare(d.Dense())
	}
	if sp, ok := m.(SpecPreparer); ok {
		return sp.PrepareSpec(s, stats)
	}
	return nil, fmt.Errorf("mechanism: %s cannot serve an implicit workload spec; materialize it as a dense Workload (workload.MaterializeSpec) first", m.Name())
}

// PrepareSpec implements SpecPreparer for LM: perturb the unit counts
// with Lap(1/ε) and answer the spec on the noisy histogram. No
// workload-shaped state at all — preparation is free at any scale.
func (LaplaceData) PrepareSpec(s workload.Spec, stats *workload.Stats) (Prepared, error) {
	if s == nil {
		return nil, fmt.Errorf("mechanism: nil spec")
	}
	return &laplaceDataSpec{s: s}, nil
}

type laplaceDataSpec struct {
	s workload.Spec
}

func (p *laplaceDataSpec) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if len(x) != p.s.Domain() {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.s.Domain())
	}
	noisy, err := privacy.LaplaceMechanism(x, 1, eps, src)
	if err != nil {
		return nil, err
	}
	return p.s.AnswerTo(make([]float64, p.s.Queries()), noisy), nil
}

func (p *laplaceDataSpec) ExpectedSSE(eps privacy.Epsilon) float64 {
	e := float64(eps)
	return 2 * p.s.SquaredSum() / (e * e)
}

// PrepareSpec implements SpecPreparer for NOR: answer the spec exactly,
// then perturb the m results with Lap(Δ/ε). The only cost that scales
// with the workload is the m-length answer vector.
func (LaplaceResults) PrepareSpec(s workload.Spec, stats *workload.Stats) (Prepared, error) {
	if s == nil {
		return nil, fmt.Errorf("mechanism: nil spec")
	}
	return &laplaceResultsSpec{s: s, delta: s.Sensitivity()}, nil
}

type laplaceResultsSpec struct {
	s     workload.Spec
	delta float64
}

func (p *laplaceResultsSpec) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if len(x) != p.s.Domain() {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.s.Domain())
	}
	exact := p.s.AnswerTo(make([]float64, p.s.Queries()), x)
	return privacy.LaplaceMechanism(exact, p.delta, eps, src)
}

func (p *laplaceResultsSpec) ExpectedSSE(eps privacy.Epsilon) float64 {
	e := float64(eps)
	return 2 * float64(p.s.Queries()) * p.delta * p.delta / (e * e)
}

// LRMFactorCellCap bounds the per-factor matrices the factored LRM path
// will materialize for its per-factor ALM runs. Factors are the small
// building blocks of a Kronecker spec; anything past this cap is not a
// "small factor" and the decomposition would dominate the savings.
// Restoring a persisted factored decomposition validates each factor
// against the same cap, so whatever the LRM can decompose it can also
// restore.
const LRMFactorCellCap = 1 << 22

// PrepareSpec implements SpecPreparer for the Low-Rank Mechanism. Only
// Kronecker specs have a factored decomposition: each (small) factor is
// materialized and decomposed independently, and the product strategy
// (⊗Bᵢ)·(⊗Lᵢ) answers through mode-product GEMMs (core.KronMechanism).
// Options.Rank applies per factor (zero keeps each factor's 1.2·rank
// default). Other spec kinds have no factored strategy — materialize
// them or let the planner pick a baseline.
func (l LRM) PrepareSpec(s workload.Spec, stats *workload.Stats) (Prepared, error) {
	k, ok := s.(*workload.KronSpec)
	if !ok {
		return nil, fmt.Errorf("mechanism: LRM has no factored strategy for %s; materialize it as a dense Workload first", s.Describe())
	}
	kd, err := l.decomposeKron(k)
	if err != nil {
		return nil, err
	}
	km, err := core.NewKronMechanism(kd)
	if err != nil {
		return nil, err
	}
	return &kronPrepared{m: km}, nil
}

func (l LRM) decomposeKron(k *workload.KronSpec) (*core.KronDecomposition, error) {
	specs := k.Factors()
	factors := make([]*mat.Dense, len(specs))
	for i, fs := range specs {
		fw, err := workload.MaterializeSpec(fs, LRMFactorCellCap)
		if err != nil {
			return nil, fmt.Errorf("mechanism: kron factor %d: %w", i+1, err)
		}
		factors[i] = fw.W
	}
	return core.DecomposeKron(factors, l.Options)
}

// kronPrepared adapts core.KronMechanism to the Prepared interface.
type kronPrepared struct {
	m *core.KronMechanism
}

func (p *kronPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	return p.m.Answer(x, eps, src)
}

func (p *kronPrepared) ExpectedSSE(eps privacy.Epsilon) float64 {
	return p.m.ExpectedSSE(eps)
}

// KronDecomposition exposes the factored strategy (the engine persists
// it to disk keyed by the spec digest).
func (p *kronPrepared) KronDecomposition() *core.KronDecomposition {
	return p.m.Decomposition()
}

// PreparedFromKronDecomposition wraps a restored factored decomposition
// (core.ReadKronDecomposition) as a Prepared LRM, skipping every ALM
// run — the spec-path twin of PreparedFromDecomposition.
func PreparedFromKronDecomposition(d *core.KronDecomposition) (Prepared, error) {
	m, err := core.NewKronMechanism(d)
	if err != nil {
		return nil, err
	}
	return &kronPrepared{m: m}, nil
}

package mechanism

import (
	"fmt"

	"lrm/internal/infer"
	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Consistent wraps any mechanism with the consistency projection of
// internal/infer: released answers are projected onto the column space of
// the workload matrix before being returned. Projection is free
// post-processing under differential privacy and can only reduce expected
// squared error; for noise-on-results on a rank-r workload it removes
// exactly the (m−r)/m fraction of the noise orthogonal to the answer
// space.
type Consistent struct {
	// Base is the wrapped mechanism (required).
	Base Mechanism
}

// Name implements Mechanism.
func (c Consistent) Name() string {
	if c.Base == nil {
		return "Consistent(?)"
	}
	return c.Base.Name() + "+proj"
}

// Prepare implements Mechanism.
func (c Consistent) Prepare(w *workload.Workload) (Prepared, error) {
	if c.Base == nil {
		return nil, fmt.Errorf("mechanism: Consistent requires a base mechanism")
	}
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	base, err := c.Base.Prepare(w)
	if err != nil {
		return nil, err
	}
	proj, err := infer.NewProjector(w.W)
	if err != nil {
		return nil, fmt.Errorf("mechanism: %w", err)
	}
	return &consistentPrepared{base: base, proj: proj}, nil
}

type consistentPrepared struct {
	base Prepared
	proj *infer.Projector
}

// Answer implements Prepared.
func (p *consistentPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	y, err := p.base.Answer(x, eps, src)
	if err != nil {
		return nil, err
	}
	return p.proj.Apply(y)
}

// AnswerMany implements BatchAnswerer: the base release batches through
// its own multi-RHS path when it has one (the generic AnswerMany entry
// point falls back to a per-column loop otherwise), then each column is
// projected with the same pooled ApplyTo kernel Answer uses — so the
// batch meets the BatchAnswerer contract whenever its base does.
func (p *consistentPrepared) AnswerMany(x *mat.Dense, eps privacy.Epsilon, src *rng.Source) (*mat.Dense, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	y, err := AnswerMany(p.base, x, eps, src)
	if err != nil {
		return nil, err
	}
	m, cols := y.Dims()
	in := make([]float64, m)
	out := make([]float64, m)
	for j := 0; j < cols; j++ {
		for i := 0; i < m; i++ {
			in[i] = y.At(i, j)
		}
		if _, err := p.proj.ApplyTo(out, in); err != nil {
			return nil, err
		}
		y.SetCol(j, out)
	}
	return y, nil
}

// ExpectedSSE implements Prepared. The projected error of the base
// mechanism has no general closed form (it depends on how the base noise
// aligns with col(W)), so NaN is reported; Evaluate measures it by Monte
// Carlo like any other mechanism.
func (p *consistentPrepared) ExpectedSSE(eps privacy.Epsilon) float64 { return NoAnalyticSSE() }

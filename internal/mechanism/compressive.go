package mechanism

import (
	"fmt"

	"lrm/internal/compress"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Compressive adapts the compressive mechanism (Li et al., WPES 2011 —
// the paper's reference [17]) to the batch-query interface: a Gaussian
// synopsis of the histogram is perturbed instead of the histogram itself,
// the histogram is reconstructed by orthogonal matching pursuit in the
// Haar basis, and the workload is answered on the reconstruction.
//
// It wins when the data is sparse (or wavelet-sparse) and the domain is
// much larger than its information content; like FPA its error has a
// data-dependent bias term, so it reports no analytic expected SSE.
type Compressive struct {
	// Measurements is the synopsis length k; zero picks n/4 (at least 1).
	Measurements int
	// Sparsity is the OMP atom budget; zero picks k/4 (at least 1).
	Sparsity int
	// Seed fixes the measurement matrix; releases with the same seed are
	// reproducible. The matrix is data-independent so the seed is public.
	Seed int64
}

// Name implements Mechanism.
func (Compressive) Name() string { return "CM" }

// Prepare implements Mechanism. The domain must be a power of two (pad
// the histogram otherwise, as the paper's evaluation protocol does).
func (c Compressive) Prepare(w *workload.Workload) (Prepared, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	n := w.Domain()
	k := c.Measurements
	if k == 0 {
		k = n / 4
		if k < 1 {
			k = 1
		}
	}
	syn, err := compress.NewSynopsis(n, k, c.Seed)
	if err != nil {
		return nil, fmt.Errorf("mechanism: %w", err)
	}
	return &compressivePrepared{w: w, syn: syn, sparsity: c.Sparsity}, nil
}

type compressivePrepared struct {
	w        *workload.Workload
	syn      *compress.Synopsis
	sparsity int
}

// Answer implements Prepared.
func (p *compressivePrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	y, err := p.syn.Compress(x, eps, src)
	if err != nil {
		return nil, err
	}
	xhat, err := p.syn.Reconstruct(y, p.sparsity, 0)
	if err != nil {
		return nil, err
	}
	return p.w.Answer(xhat), nil
}

// ExpectedSSE implements Prepared: no data-independent closed form.
func (p *compressivePrepared) ExpectedSSE(eps privacy.Epsilon) float64 { return NoAnalyticSSE() }

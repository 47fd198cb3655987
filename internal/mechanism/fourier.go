package mechanism

import (
	"fmt"
	"math"

	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/transform"
	"lrm/internal/workload"
)

// Fourier is the Fourier Perturbation Algorithm (FPA_k) of Rastogi and
// Nath (SIGMOD 2010), the transform-synopsis baseline the paper's related
// work cites as [24]. The histogram is transformed with the unitary DFT,
// only the first K coefficients are retained and perturbed, and the noisy
// spectrum is inverted to a synthetic histogram that answers the whole
// workload.
//
// Privacy: a unit change in one count changes the full unitary spectrum
// by an L2-norm-1 vector, so the 2K real numbers released (real and
// imaginary parts of the K retained coefficients) change by at most
// √(2K) in L1. Laplace noise with scale √(2K)/ε on each part therefore
// gives ε-differential privacy; everything after the release (mirroring,
// inversion, answering) is post-processing.
//
// Utility: the retained-coefficient count trades noise (grows like K) for
// bias (the dropped tail energy). FPA shines on smooth, periodic
// histograms; on adversarial data the bias term is unbounded, which is
// why it has no analytic expected SSE here.
type Fourier struct {
	// K is the number of retained low-frequency coefficients. Zero picks
	// the default n/8 (at least 1, at most n).
	K int
}

// Name implements Mechanism.
func (Fourier) Name() string { return "FPA" }

// Prepare implements Mechanism.
func (f Fourier) Prepare(w *workload.Workload) (Prepared, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	n := w.Domain()
	k := f.K
	if k == 0 {
		k = n / 8
		if k < 1 {
			k = 1
		}
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("mechanism: Fourier K=%d out of range [1,%d]", k, n)
	}
	return &fourierPrepared{w: w, n: n, k: k}, nil
}

type fourierPrepared struct {
	w *workload.Workload
	n int
	k int
}

// Answer implements Prepared.
func (p *fourierPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if len(x) != p.n {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.n)
	}
	// The released numbers are the retained coefficients as interleaved
	// (re, im) pairs, L1 sensitivity √(2K).
	spec := transform.FFTReal(x)
	parts := make([]float64, 2*p.k)
	for j := 0; j < p.k; j++ {
		parts[2*j], parts[2*j+1] = real(spec[j]), imag(spec[j])
	}
	if err := privacy.AddLaplaceNoise(parts, math.Sqrt(2*float64(p.k)), eps, src); err != nil {
		return nil, err
	}
	noisy := make([]complex128, p.n)
	for j := 0; j < p.k; j++ {
		noisy[j] = complex(parts[2*j], parts[2*j+1])
	}
	// Post-processing: enforce the conjugate symmetry of a real signal so
	// the inverse transform is real. Index 0 (and n/2 for even n) must be
	// real; indices j and n−j mirror.
	noisy[0] = complex(real(noisy[0]), 0)
	for j := 1; j < p.k; j++ {
		m := p.n - j
		if m == j {
			noisy[j] = complex(real(noisy[j]), 0)
			continue
		}
		if m >= p.k { // mirror slot was dropped: fill it
			noisy[m] = complex(real(noisy[j]), -imag(noisy[j]))
		}
	}
	xhat := transform.IFFTReal(noisy)
	return p.w.Answer(xhat), nil
}

// ExpectedSSE implements Prepared. FPA's error includes a data-dependent
// bias (the dropped spectral tail), so there is no data-independent
// closed form.
func (p *fourierPrepared) ExpectedSSE(eps privacy.Epsilon) float64 {
	return NoAnalyticSSE()
}

// ReconstructionBias returns the squared L2 norm of the spectral tail of
// x that FPA_k drops — the bias part of its error, useful for choosing K
// offline on public or synthetic data (choosing K on the private data
// would itself cost privacy budget).
func (p *fourierPrepared) ReconstructionBias(x []float64) (float64, error) {
	if len(x) != p.n {
		return 0, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.n)
	}
	spec := transform.FFTReal(x)
	var tail float64
	for j := p.k; j < p.n; j++ {
		m := p.n - j
		if m >= 1 && m < p.k && m != j {
			// This slot is regenerated from its retained mirror; its tail
			// energy is not lost.
			continue
		}
		re, im := real(spec[j]), imag(spec[j])
		tail += re*re + im*im
	}
	return tail, nil
}

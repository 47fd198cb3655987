package mechanism

import (
	"fmt"
	"math"

	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// Wavelet is the paper's WM baseline: Privelet (Xiao, Wang and Gehrke,
// ICDE 2010). The histogram is transformed into Haar wavelet
// coefficients, each coefficient is perturbed with Laplace noise whose
// scale is calibrated per level so the whole release costs ε, and the
// noisy histogram is reconstructed by the inverse transform. Range-query
// noise then grows with log³n instead of the range length.
type Wavelet struct{}

// Name implements Mechanism.
func (Wavelet) Name() string { return "WM" }

// Prepare implements Mechanism.
func (Wavelet) Prepare(w *workload.Workload) (Prepared, error) {
	if w == nil || w.W == nil {
		return nil, fmt.Errorf("mechanism: nil workload")
	}
	n := w.Domain()
	padded := 1
	h := 0
	for padded < n {
		padded *= 2
		h++
	}
	return &waveletPrepared{w: w, n: n, padded: padded, levels: h}, nil
}

type waveletPrepared struct {
	w      *workload.Workload
	n      int // true domain size
	padded int // next power of two
	levels int // h = log2(padded)
}

// coefficientScales returns the Laplace scale for the base coefficient c0
// and for each height j = 1..h. Changing one unit count by 1 changes c0
// by 1/N and the ancestor coefficient at height j by 1/2ʲ; with scales
// λ0 = (1+h)/(ε·N) and λj = (1+h)/(ε·2ʲ) the total privacy cost is
// (1/N)/λ0 + Σⱼ (1/2ʲ)/λⱼ = ε(1 + h)/(1+h) = ε.
func (p *waveletPrepared) coefficientScales(eps privacy.Epsilon) (lam0 float64, lam []float64) {
	e := float64(eps)
	c := float64(1+p.levels) / e
	lam0 = c / float64(p.padded)
	lam = make([]float64, p.levels+1)
	for j := 1; j <= p.levels; j++ {
		lam[j] = c / float64(int(1)<<j)
	}
	return lam0, lam
}

// Answer implements Prepared.
func (p *waveletPrepared) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if len(x) != p.n {
		return nil, fmt.Errorf("mechanism: data length %d != domain %d", len(x), p.n)
	}
	n := p.padded
	// Forward transform: subtree sums bottom-up in a heap-ordered array
	// (node i has children 2i and 2i+1; leaves live at [n, 2n)).
	sums := make([]float64, 2*n)
	copy(sums[n:n+p.n], x)
	for i := n - 1; i >= 1; i-- {
		sums[i] = sums[2*i] + sums[2*i+1]
	}
	// Noisy coefficients: coeff[i] for internal node i is
	// (sumLeft − sumRight)/size(i), and coeff[0] is the base coefficient
	// c0. The nodes of depth row [d, 2d) share one height, so each row is
	// one noise call at sensitivity (1+h)/size, the scale λ of
	// coefficientScales; c0 is drawn last.
	coeff := make([]float64, n)
	c := float64(1 + p.levels)
	for d := 1; d < n; d *= 2 {
		size := n / d
		for i := d; i < 2*d; i++ {
			coeff[i] = (sums[2*i] - sums[2*i+1]) / float64(size)
		}
		if err := privacy.AddLaplaceNoise(coeff[d:2*d], c/float64(size), eps, src); err != nil {
			return nil, err
		}
	}
	coeff[0] = sums[1] / float64(n)
	if err := privacy.AddLaplaceNoise(coeff[:1], c/float64(n), eps, src); err != nil {
		return nil, err
	}

	// Inverse transform: propagate averages down the tree.
	avg := make([]float64, 2*n)
	avg[1] = coeff[0]
	for i := 1; i < n; i++ {
		avg[2*i] = avg[i] + coeff[i]
		avg[2*i+1] = avg[i] - coeff[i]
	}
	xhat := avg[n : n+p.n]
	return p.w.Answer(xhat), nil
}

// sizeIndex returns the first index of node i's depth row (a power of 2),
// so n/sizeIndex(i) is the number of leaves under node i.
func sizeIndex(i int) int {
	s := 1
	for s*2 <= i {
		s *= 2
	}
	return s
}

func log2(v int) int {
	j := 0
	for v > 1 {
		v >>= 1
		j++
	}
	return j
}

// ExpectedSSE implements Prepared. The reconstruction noise is
// x̂ − x = η0·1 + Σ_v ηv·g_v with g_v = +1 on v's left half, −1 on its
// right half, so SSE = 2λ0²·‖W·1‖² + Σ_v 2λ_{h(v)}²·‖W·g_v‖², computed
// with per-row prefix sums in O(m·n).
func (p *waveletPrepared) ExpectedSSE(eps privacy.Epsilon) float64 {
	lam0, lam := p.coefficientScales(eps)
	n := p.padded
	m := p.w.Queries()
	// Prefix sums of each workload row over the padded domain.
	prefix := make([][]float64, m)
	for q := 0; q < m; q++ {
		row := p.w.W.RawRow(q)
		ps := make([]float64, n+1)
		for j := 0; j < p.n; j++ {
			ps[j+1] = ps[j] + row[j]
		}
		for j := p.n; j < n; j++ {
			ps[j+1] = ps[j]
		}
		prefix[q] = ps
	}
	rangeSum := func(q, lo, hi int) float64 { // [lo, hi)
		return prefix[q][hi] - prefix[q][lo]
	}
	var sse float64
	// Base coefficient: g = all ones.
	for q := 0; q < m; q++ {
		v := rangeSum(q, 0, n)
		sse += 2 * lam0 * lam0 * v * v
	}
	// Internal nodes in heap order: node i covers [start, start+size).
	for i := 1; i < n; i++ {
		size := n / sizeIndex(i)
		start := (i - sizeIndex(i)) * size
		half := size / 2
		j := log2(size)
		for q := 0; q < m; q++ {
			v := rangeSum(q, start, start+half) - rangeSum(q, start+half, start+size)
			sse += 2 * lam[j] * lam[j] * v * v
		}
	}
	if math.IsNaN(sse) {
		return NoAnalyticSSE()
	}
	return sse
}

package hist

import (
	"fmt"

	"lrm/internal/privacy"
	"lrm/internal/rng"
)

// Result is a published ε-DP histogram.
type Result struct {
	// Estimate is the per-cell histogram estimate (bucket means).
	Estimate []float64
	// Boundaries holds the bucket start indices used.
	Boundaries []int
}

// NoiseFirst publishes an ε-DP histogram by perturbing every count with
// Laplace(1/ε) noise and then fitting a B-bucket v-optimal histogram to
// the *noisy* counts. Because the structure is computed from already
// private data, the whole release costs exactly ε; averaging the noisy
// counts inside a bucket of size s reduces the noise variance by a
// factor of s at the price of the bucket's structural bias.
func NoiseFirst(x []float64, b int, eps privacy.Epsilon, src *rng.Source) (*Result, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("hist: empty data")
	}
	noisy, err := privacy.LaplaceMechanism(x, 1, eps, src)
	if err != nil {
		return nil, err
	}
	boundaries, _, err := VOptimal(noisy, b)
	if err != nil {
		return nil, err
	}
	est, err := Smooth(noisy, boundaries)
	if err != nil {
		return nil, err
	}
	return &Result{Estimate: est, Boundaries: boundaries}, nil
}

// StructureFirstOptions configures StructureFirst.
type StructureFirstOptions struct {
	// Buckets is the number of buckets B (required, 1 ≤ B ≤ n).
	Buckets int
	// StructureFraction is the share of ε spent selecting boundaries via
	// the exponential mechanism; the rest perturbs the bucket sums. Zero
	// means the published default 0.5.
	StructureFraction float64
	// MaxCount is the public bound M on any single count, which caps the
	// exponential mechanism's utility sensitivity at 2(2M+1). Zero means
	// 1000 (adequate for normalized histograms; pick the real domain
	// bound in applications).
	MaxCount float64
}

// StructureFirst publishes an ε-DP histogram by (1) selecting the B−1
// bucket boundaries on the true counts with the exponential mechanism —
// each boundary drawn from candidate positions scored by the optimal
// achievable SSE given the choice, at ε₁/(B−1) apiece — and then (2)
// releasing each bucket's sum with Laplace(1/ε₂) noise. A record affects
// exactly one bucket sum, so step (2) costs ε₂ by parallel composition;
// sequential composition over both steps gives ε = ε₁ + ε₂.
func StructureFirst(x []float64, opt StructureFirstOptions, eps privacy.Epsilon, src *rng.Source) (*Result, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("hist: empty data")
	}
	b := opt.Buckets
	if b < 1 || b > n {
		return nil, fmt.Errorf("hist: bucket count %d out of range [1,%d]", b, n)
	}
	frac := opt.StructureFraction
	if frac == 0 {
		frac = 0.5
	}
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("hist: structure fraction %g must be in (0,1)", frac)
	}
	maxCount := opt.MaxCount
	if maxCount == 0 {
		maxCount = 1000
	}
	if maxCount < 0 {
		return nil, fmt.Errorf("hist: negative MaxCount %g", maxCount)
	}
	epsStructure := privacy.Epsilon(float64(eps) * frac)
	epsCounts := eps - epsStructure

	boundaries, err := sampleBoundaries(x, b, epsStructure, maxCount, src)
	if err != nil {
		return nil, err
	}
	// Release bucket sums with Laplace(1/ε₂): one record lands in exactly
	// one bucket, so the vector of bucket sums has L1 sensitivity 1.
	t := newSSETable(x)
	bucketEnd := func(k int) int {
		if k+1 < len(boundaries) {
			return boundaries[k+1]
		}
		return n
	}
	sums := make([]float64, len(boundaries))
	for k, lo := range boundaries {
		sums[k] = t.sum(lo, bucketEnd(k))
	}
	if err := privacy.AddLaplaceNoise(sums, 1, epsCounts, src); err != nil {
		return nil, err
	}
	est := make([]float64, n)
	for k, lo := range boundaries {
		hi := bucketEnd(k)
		m := sums[k] / float64(hi-lo)
		for i := lo; i < hi; i++ {
			est[i] = m
		}
	}
	return &Result{Estimate: est, Boundaries: boundaries}, nil
}

// sampleBoundaries draws B−1 interior boundaries left to right. The k-th
// draw scores every feasible position p by −(best SSE achievable when the
// previous bucket ends at p and the remaining counts are split optimally)
// and samples with the exponential mechanism. Changing one count by ≤1
// (with counts bounded by M) moves any bucket SSE by at most 2(2M+1), the
// utility sensitivity used for calibration.
func sampleBoundaries(x []float64, b int, eps privacy.Epsilon, maxCount float64, src *rng.Source) ([]int, error) {
	n := len(x)
	boundaries := make([]int, 1, b)
	boundaries[0] = 0
	if b == 1 {
		return boundaries, nil
	}
	t := newSSETable(x)
	// suffix[k][i]: optimal SSE of counts[i:] in k buckets.
	suffix := suffixCosts(t, n, b)
	perChoice := privacy.Epsilon(float64(eps) / float64(b-1))
	du := 2 * (2*maxCount + 1)
	prev := 0
	for k := 1; k < b; k++ {
		remaining := b - k // buckets for counts[p:]
		// Candidate positions p for the k-th boundary: previous bucket is
		// [prev, p); it must be non-empty and leave ≥ remaining cells.
		lo, hi := prev+1, n-remaining+1
		if lo >= hi {
			return nil, fmt.Errorf("hist: no feasible boundary %d of %d", k, b-1)
		}
		scores := make([]float64, hi-lo)
		for p := lo; p < hi; p++ {
			scores[p-lo] = -(t.sse(prev, p) + suffix[remaining][p])
		}
		idx, err := privacy.ExponentialMechanism(scores, du, perChoice, src)
		if err != nil {
			return nil, err
		}
		prev = lo + idx
		boundaries = append(boundaries, prev)
	}
	return boundaries, nil
}

// suffixCosts returns suffix[k][i] = optimal SSE of counts[i:] using k
// buckets (k up to b−1; suffix[k][n] is 0 only for k == 0).
func suffixCosts(t *sseTable, n, b int) [][]float64 {
	const inf = 1e308
	suffix := make([][]float64, b)
	for k := range suffix {
		suffix[k] = make([]float64, n+1)
		for i := range suffix[k] {
			suffix[k][i] = inf
		}
	}
	suffix[0][n] = 0
	for k := 1; k < b; k++ {
		for i := n - k; i >= 0; i-- {
			// First bucket of the suffix is [i, j).
			bestV := inf
			for j := i + 1; j <= n; j++ {
				if suffix[k-1][j] >= inf {
					continue
				}
				c := t.sse(i, j) + suffix[k-1][j]
				if c < bestV {
					bestV = c
				}
			}
			suffix[k][i] = bestV
		}
	}
	return suffix
}

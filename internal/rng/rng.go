// Package rng provides the reproducible randomness used throughout the
// repository: a seeded source plus the samplers the paper's mechanisms and
// workload/dataset generators need (Laplace, Gaussian, uniform, Pareto,
// Poisson). Release noise is drawn only through internal/privacy, whose
// primitives call Laplace; the lint suite's noiserand analyzer keeps
// every other package off it.
//
// All experiment code threads an explicit *Source so every figure can be
// regenerated bit-for-bit from its seed.
package rng

import (
	"math"
	"math/rand"
)

// Source wraps math/rand with the distribution samplers used by the
// mechanisms. It is not safe for concurrent use; use Split to hand
// independent sources to goroutines.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Split returns a new Source whose stream is independent of s's future
// output (seeded from s). Useful for parallel trials.
func (s *Source) Split() *Source {
	return New(s.r.Int63())
}

// Reseed resets s to the stream New(seed) would produce, letting pooled
// sources be reused without allocating (hot answering paths reseed a
// pooled Source per request instead of constructing one).
func (s *Source) Reseed(seed int64) {
	s.r.Seed(seed)
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform int in [0,n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Normal returns a standard normal sample.
func (s *Source) Normal() float64 { return s.r.NormFloat64() }

// Laplace returns a sample from the zero-mean Laplace distribution with
// scale b (density 1/(2b)·exp(−|x|/b), variance 2b²). Sampling is by
// inverse CDF: x = −b·sign(u)·ln(1−2|u|) for u uniform in (−1/2, 1/2).
func (s *Source) Laplace(b float64) float64 {
	if b < 0 {
		panic("rng: negative Laplace scale")
	}
	if b == 0 {
		return 0
	}
	u := s.r.Float64() - 0.5
	if u >= 0 {
		return -b * math.Log(1-2*u)
	}
	return b * math.Log(1+2*u)
}

// NormalVec returns n i.i.d. N(0, sigma²) samples.
func (s *Source) NormalVec(n int, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.r.NormFloat64() * sigma
	}
	return out
}

// UniformVec returns n i.i.d. uniform samples in [lo, hi).
func (s *Source) UniformVec(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + s.r.Float64()*(hi-lo)
	}
	return out
}

// Pareto returns a sample from a Pareto distribution with minimum xm and
// shape alpha (heavy-tailed; used by the Net Trace synthesizer).
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson(lambda) sample. Knuth's method is used for
// small lambda and a normal approximation above 500 (adequate for data
// synthesis).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		v := lambda + math.Sqrt(lambda)*s.r.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

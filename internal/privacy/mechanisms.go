package privacy

import (
	"errors"
	"fmt"
	"math"

	"lrm/internal/rng"
)

// This file provides the standard differential-privacy mechanism toolbox
// beyond the Laplace mechanism: the exponential mechanism of McSherry and
// Talwar (used pervasively in the literature the paper builds on), the
// geometric mechanism (integer-valued Laplace), and advanced composition
// accounting.

// ExponentialMechanism selects an index from scores under ε-DP: index i
// is chosen with probability ∝ exp(ε·scores[i]/(2·sensitivity)), where
// sensitivity bounds how much any single record can change any score.
func ExponentialMechanism(scores []float64, sensitivity float64, eps Epsilon, src *rng.Source) (int, error) {
	if err := eps.Validate(); err != nil {
		return 0, err
	}
	if len(scores) == 0 {
		return 0, errors.New("privacy: exponential mechanism with no candidates")
	}
	if sensitivity <= 0 {
		return 0, fmt.Errorf("privacy: exponential mechanism needs positive sensitivity, got %v", sensitivity)
	}
	// Numerically stable: subtract the max score before exponentiating.
	maxScore := scores[0]
	for _, s := range scores[1:] {
		if s > maxScore {
			maxScore = s
		}
	}
	c := float64(eps) / (2 * sensitivity)
	weights := make([]float64, len(scores))
	var total float64
	for i, s := range scores {
		w := math.Exp(c * (s - maxScore))
		weights[i] = w
		total += w
	}
	u := src.Float64() * total
	var cum float64
	for i, w := range weights {
		cum += w
		if u < cum {
			return i, nil
		}
	}
	return len(scores) - 1, nil
}

// GeometricMechanism adds two-sided geometric ("discrete Laplace") noise
// to an integer count: P(noise = k) ∝ α^|k| with α = exp(−ε/sensitivity).
// It is the canonical ε-DP mechanism for integer-valued queries.
func GeometricMechanism(exact int64, sensitivity float64, eps Epsilon, src *rng.Source) (int64, error) {
	if err := eps.Validate(); err != nil {
		return 0, err
	}
	if sensitivity <= 0 {
		return 0, fmt.Errorf("privacy: geometric mechanism needs positive sensitivity, got %v", sensitivity)
	}
	alpha := math.Exp(-float64(eps) / sensitivity)
	// Sample magnitude from a geometric distribution: P(|k| = j) for
	// j >= 1 is (1−α)/(1+α)·2α^j; P(0) = (1−α)/(1+α).
	u := src.Float64()
	p0 := (1 - alpha) / (1 + alpha)
	if u < p0 {
		return exact, nil
	}
	// Remaining mass split evenly between signs; invert the geometric CDF.
	u = (u - p0) / (1 - p0) // uniform in [0,1)
	sign := int64(1)
	if u >= 0.5 {
		sign = -1
		u = (u - 0.5) * 2
	} else {
		u *= 2
	}
	// P(j) ∝ α^j for j >= 1: j = 1 + floor(log(1−u)/log(α)).
	j := 1 + int64(math.Floor(math.Log(1-u)/math.Log(alpha)))
	if j < 1 {
		j = 1
	}
	return exact + sign*j, nil
}

// AdvancedComposition returns the (ε', δ') guarantee of running k
// mechanisms, each (ε, δ)-DP, under the advanced composition theorem of
// Dwork, Rothblum and Vadhan (FOCS 2010):
//
//	ε' = ε·sqrt(2k·ln(1/δ⁰)) + k·ε·(e^ε − 1),  δ' = k·δ + δ⁰
//
// for a chosen slack δ⁰ > 0.
func AdvancedComposition(eps Epsilon, delta float64, k int, slack float64) (Epsilon, float64, error) {
	if err := eps.Validate(); err != nil {
		return 0, 0, err
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("privacy: composition of %d mechanisms", k)
	}
	if slack <= 0 || slack >= 1 {
		return 0, 0, fmt.Errorf("privacy: slack must be in (0,1), got %v", slack)
	}
	e := float64(eps)
	epsOut := e*math.Sqrt(2*float64(k)*math.Log(1/slack)) + float64(k)*e*(math.Exp(e)-1)
	deltaOut := float64(k)*delta + slack
	return Epsilon(epsOut), deltaOut, nil
}

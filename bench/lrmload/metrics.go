package main

import (
	"fmt"
	"math"
	"sort"

	"lrm/internal/engine"
)

// percentileLadder is the set of percentiles a tail latency is reported
// at, highest first.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minBeyond = 10

// supportedPercentile returns the highest ladder percentile, at most
// want, with at least minBeyond of n samples beyond it; 0 when n is too
// small for any.
func supportedPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ⌈p·n/100⌉, with the rounding error of p·n/100 removed so that, e.g.,
// p99.9 of 10000 samples is rank 9990.
func rank(n int, p float64) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// percentile returns the nearest-rank p-th percentile of xs; +Inf
// entries (failed requests) sort last.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// gate is one correctness check of a workload run.
type gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// noiseGate checks that the measured per-entry squared error, over the
// analytic ExpectedSSE(ε)/m, lies in band: far below means noise was
// dropped or mis-scaled, far above means the wrong mechanism or a
// broken answer path.
func noiseGate(mse, analytic float64, band [2]float64) gate {
	ratio := mse / analytic
	return gate{
		Name:   "noise",
		Pass:   ratio >= band[0] && ratio <= band[1],
		Detail: fmt.Sprintf("answer_mse/analytic = %.4g/%.4g = %.4g, band [%g, %g]", mse, analytic, ratio, band[0], band[1]),
	}
}

// spendGate checks that the tenant was charged exactly ε per answered
// histogram: once, at the commit point, never twice.
func spendGate(spent float64, histograms int) gate {
	want := float64(histograms) * benchEps
	return gate{
		Name:   "spend",
		Pass:   math.Abs(spent-want) <= 1e-9*math.Max(1, want),
		Detail: fmt.Sprintf("tenant spent %.6g, want %d×%g = %.6g", spent, histograms, benchEps, want),
	}
}

// prepareGate checks the cache behaviour the workload exists for: warm
// phases must not prepare or miss at all, and a cold workload must
// prepare once per request and never hit.
func prepareGate(cold bool, d engine.Stats, requests int) gate {
	g := gate{Name: "prepares", Detail: fmt.Sprintf("prepares %d, hits %d, misses %d over %d requests", d.Prepares, d.Hits, d.Misses, requests)}
	if cold {
		g.Pass = d.Prepares == uint64(requests) && d.Hits == 0
	} else {
		g.Pass = d.Prepares == 0 && d.Misses == 0 && d.Hits == uint64(requests)
	}
	return g
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

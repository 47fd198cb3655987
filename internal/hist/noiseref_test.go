package hist

import (
	"fmt"
	"math"
	"testing"

	"lrm/internal/privacy"
	"lrm/internal/rng"
)

// structureFirstReference is StructureFirst as it ran before its bucket
// sums moved into one privacy.AddLaplaceNoise call, with the inline
// noise loop kept verbatim.
func structureFirstReference(x []float64, opt StructureFirstOptions, eps privacy.Epsilon, src *rng.Source) (*Result, error) {
	n := len(x)
	b := opt.Buckets
	frac := opt.StructureFraction
	if frac == 0 {
		frac = 0.5
	}
	maxCount := opt.MaxCount
	if maxCount == 0 {
		maxCount = 1000
	}
	epsStructure := privacy.Epsilon(float64(eps) * frac)
	epsCounts := eps - epsStructure

	boundaries, err := sampleBoundaries(x, b, epsStructure, maxCount, src)
	if err != nil {
		return nil, err
	}
	t := newSSETable(x)
	est := make([]float64, n)
	lam := 1 / float64(epsCounts)
	for k := range boundaries {
		lo := boundaries[k]
		hi := n
		if k+1 < len(boundaries) {
			hi = boundaries[k+1]
		}
		noisySum := t.sum(lo, hi) + src.Laplace(lam)
		m := noisySum / float64(hi-lo)
		for i := lo; i < hi; i++ {
			est[i] = m
		}
	}
	return &Result{Estimate: est, Boundaries: boundaries}, nil
}

// TestStructureFirstNoiseMatchesReference pins StructureFirst to the
// reference bit for bit, for one release and for consecutive releases
// sharing a source.
func TestStructureFirstNoiseMatchesReference(t *testing.T) {
	for _, n := range []int{1, 7, 24} {
		x := make([]float64, n)
		gen := rng.New(int64(n))
		for i := range x {
			x[i] = float64(gen.Intn(60))
		}
		for _, opt := range []StructureFirstOptions{
			{Buckets: 1},
			{Buckets: (n + 1) / 2},
			{Buckets: n, StructureFraction: 0.3, MaxCount: 60},
		} {
			for _, eps := range []privacy.Epsilon{0.2, 2} {
				name := fmt.Sprintf("n%d_%+v_eps%g", n, opt, float64(eps))
				got, want := rng.New(9), rng.New(9)
				for rep := 0; rep < 3; rep++ {
					g, err := StructureFirst(x, opt, eps, got)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					r, err := structureFirstReference(x, opt, eps, want)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if fmt.Sprint(g.Boundaries) != fmt.Sprint(r.Boundaries) {
						t.Fatalf("%s rep %d: boundaries %v, reference %v", name, rep, g.Boundaries, r.Boundaries)
					}
					for i := range r.Estimate {
						if math.Float64bits(g.Estimate[i]) != math.Float64bits(r.Estimate[i]) {
							t.Fatalf("%s rep %d: Estimate[%d] = %v, reference %v", name, rep, i, g.Estimate[i], r.Estimate[i])
						}
					}
				}
			}
		}
	}
}

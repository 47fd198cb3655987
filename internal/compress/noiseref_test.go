package compress

import (
	"fmt"
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
)

// compressReference is Synopsis.Compress as it ran before its draws
// moved into privacy.AddLaplaceNoise, with the inline noise loop kept
// verbatim.
func compressReference(s *Synopsis, x []float64, eps float64, src *rng.Source) []float64 {
	y := mat.MulVec(s.phi, x)
	lam := s.sens / eps
	for i := range y {
		y[i] += src.Laplace(lam)
	}
	return y
}

// TestCompressNoiseMatchesReference pins Compress to the reference bit
// for bit, for one release and for consecutive releases sharing a
// source.
func TestCompressNoiseMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, k int }{{1, 1}, {16, 4}, {64, 64}} {
		s, err := NewSynopsis(c.n, c.k, int64(c.n))
		if err != nil {
			t.Fatal(err)
		}
		x := rng.New(3).UniformVec(c.n, 0, 100)
		for _, eps := range []privacy.Epsilon{0.1, 1, 7} {
			name := fmt.Sprintf("n%d_k%d_eps%g", c.n, c.k, float64(eps))
			got, want := rng.New(4), rng.New(4)
			for rep := 0; rep < 3; rep++ {
				y, err := s.Compress(x, eps, got)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := compressReference(s, x, float64(eps), want)
				for i := range ref {
					if math.Float64bits(y[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("%s rep %d: y[%d] = %v, reference %v", name, rep, i, y[i], ref[i])
					}
				}
			}
		}
	}
}

// TestCompressRejectsInvalidEpsilon: an ε that is not strictly positive
// and finite must be refused, never answered with noise of scale 0 (+Inf
// would release Φx exactly) or NaN.
func TestCompressRejectsInvalidEpsilon(t *testing.T) {
	s, err := NewSynopsis(16, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i)
	}
	for _, eps := range []float64{math.Inf(1), math.NaN(), 0, -1, 1e13} {
		if y, err := s.Compress(x, privacy.Epsilon(eps), rng.New(1)); err == nil {
			t.Errorf("Compress(eps=%v) = %v, want an error", eps, y)
		}
	}
}

package mechanism

import (
	"fmt"
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/transform"
	"lrm/internal/workload"
)

// The reference answers below keep the inline noise loops WM, HM and FPA
// ran before their draws moved into the privacy primitives, verbatim.
// The *NoiseMatchesReference tests pin the refactored mechanisms to them
// bit for bit on the host that runs them, so a reordered draw or a
// changed scale fails by name on every kernel tier.

func waveletReference(p *waveletPrepared, x []float64, eps privacy.Epsilon, src *rng.Source) []float64 {
	n := p.padded
	sums := make([]float64, 2*n)
	copy(sums[n:n+p.n], x)
	for i := n - 1; i >= 1; i-- {
		sums[i] = sums[2*i] + sums[2*i+1]
	}
	lam0, lam := p.coefficientScales(eps)
	coeff := make([]float64, n) // index 1..n−1 used
	for i := 1; i < n; i++ {
		size := n / sizeIndex(i)
		j := log2(size) // height of node i
		coeff[i] = (sums[2*i]-sums[2*i+1])/float64(size) + src.Laplace(lam[j])
	}
	c0 := sums[1]/float64(n) + src.Laplace(lam0)

	avg := make([]float64, 2*n)
	avg[1] = c0
	for i := 1; i < n; i++ {
		avg[2*i] = avg[i] + coeff[i]
		avg[2*i+1] = avg[i] - coeff[i]
	}
	return p.w.Answer(avg[n : n+p.n])
}

func hierarchicalReference(p *hierarchicalPrepared, x []float64, eps privacy.Epsilon, src *rng.Source) []float64 {
	b := p.b
	levelStart := make([]int, p.levels+1)
	total := 0
	for lev := 0; lev < p.levels; lev++ {
		levelStart[lev] = total
		total += pow(b, lev)
	}
	levelStart[p.levels] = total

	sums := make([]float64, total)
	leafBase := levelStart[p.levels-1]
	for i := 0; i < p.n; i++ {
		sums[leafBase+i] = x[i]
	}
	for lev := p.levels - 2; lev >= 0; lev-- {
		for i := 0; i < pow(b, lev); i++ {
			var s float64
			for c := 0; c < b; c++ {
				s += sums[levelStart[lev+1]+i*b+c]
			}
			sums[levelStart[lev]+i] = s
		}
	}

	scale := float64(p.levels) / float64(eps)
	z := make([]float64, total)
	for i := range z {
		z[i] = sums[i] + src.Laplace(scale)
	}

	xhat := p.consistency(z, levelStart)
	return p.w.Answer(xhat[:p.n])
}

func fourierReference(p *fourierPrepared, x []float64, eps privacy.Epsilon, src *rng.Source) []float64 {
	spec := transform.FFTReal(x)
	lam := math.Sqrt(2*float64(p.k)) / float64(eps)
	noisy := make([]complex128, p.n)
	for j := 0; j < p.k; j++ {
		noisy[j] = spec[j] + complex(src.Laplace(lam), src.Laplace(lam))
	}
	noisy[0] = complex(real(noisy[0]), 0)
	for j := 1; j < p.k; j++ {
		m := p.n - j
		if m == j {
			noisy[j] = complex(real(noisy[j]), 0)
			continue
		}
		if m >= p.k {
			noisy[m] = complex(real(noisy[j]), -imag(noisy[j]))
		}
	}
	return p.w.Answer(transform.IFFTReal(noisy))
}

// checkNoiseMatchesReference compares the mechanism mk builds for each
// domain size with its reference at B = 1 (one Answer) and for a seeded
// batch: AnswerManyLoop, and AnswerMany, against the reference looped
// over the columns with one shared source.
func checkNoiseMatchesReference(t *testing.T, mk func(n int) Mechanism, ref func(Prepared, []float64, privacy.Epsilon, *rng.Source) []float64) {
	t.Helper()
	const cols = 4
	for _, n := range []int{1, 2, 5, 16, 20, 27, 33} {
		for _, eps := range []privacy.Epsilon{0.1, 1, 3} {
			name := fmt.Sprintf("n%d_eps%g", n, float64(eps))
			src := rng.New(int64(n))
			w := workload.Range(7, n, src)
			x := mat.New(n, cols)
			for i := range x.RawData() {
				x.RawData()[i] = float64(src.Intn(100))
			}
			p, err := mk(n).Prepare(w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			col := x.Col(0)
			got, err := p.Answer(col, eps, rng.New(5))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bitsEqual(t, name+"/B=1", got, ref(p, col, eps, rng.New(5)))

			want := mat.New(w.Queries(), cols)
			refSrc := rng.New(6)
			for j := 0; j < cols; j++ {
				want.SetCol(j, ref(p, x.Col(j), eps, refSrc))
			}
			loop, err := AnswerManyLoop(p, x, eps, rng.New(6))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bitsEqual(t, name+"/AnswerManyLoop", loop.RawData(), want.RawData())
			many, err := AnswerMany(p, x, eps, rng.New(6))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bitsEqual(t, name+"/AnswerMany", many.RawData(), want.RawData())
		}
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

func TestWaveletNoiseMatchesReference(t *testing.T) {
	checkNoiseMatchesReference(t, func(int) Mechanism { return Wavelet{} }, func(p Prepared, x []float64, eps privacy.Epsilon, src *rng.Source) []float64 {
		return waveletReference(p.(*waveletPrepared), x, eps, src)
	})
}

func TestHierarchicalNoiseMatchesReference(t *testing.T) {
	for _, b := range []int{2, 3, 4} {
		checkNoiseMatchesReference(t, func(int) Mechanism { return Hierarchical{Branch: b} }, func(p Prepared, x []float64, eps privacy.Epsilon, src *rng.Source) []float64 {
			return hierarchicalReference(p.(*hierarchicalPrepared), x, eps, src)
		})
	}
}

func TestFourierNoiseMatchesReference(t *testing.T) {
	// K = 0 is the default n/8; K = n retains every coefficient.
	for _, k := range []func(n int) int{func(int) int { return 0 }, func(int) int { return 1 }, func(n int) int { return n }} {
		checkNoiseMatchesReference(t, func(n int) Mechanism { return Fourier{K: k(n)} }, func(p Prepared, x []float64, eps privacy.Epsilon, src *rng.Source) []float64 {
			return fourierReference(p.(*fourierPrepared), x, eps, src)
		})
	}
}

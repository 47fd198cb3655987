// Synopsis: the paper's future-work direction — exploiting correlations
// between data values — demonstrated head-to-head on the histogram-
// publication task (the identity workload: release all n counts). Three
// synthetic histograms, each matched to one data-synopsis mechanism cited
// by the paper: "smooth" (Fourier-sparse → FPA, reference [24]), "blocky"
// (piecewise-constant → NF, reference [29]) and "spiky" (wavelet-sparse →
// CM, reference [17]). The diagonal wins: every synopsis beats plain
// Laplace exactly when the data matches its structural prior. LRM is
// deliberately shown on its *worst* workload — the identity has full rank
// n, so there is no query correlation to exploit and LRM can only match
// the Laplace floor; the two families of correlation are complementary.
package main

import (
	"fmt"
	"math"

	"lrm"
)

const (
	n      = 256
	trials = 8
)

// smooth: a strong seasonal curve — nearly all energy in the first three
// Fourier coefficients.
func smooth() []float64 {
	x := make([]float64, n)
	for i := range x {
		t := 2 * math.Pi * float64(i) / float64(n)
		x[i] = 2500 + 1500*math.Sin(t) + 400*math.Cos(2*t)
	}
	return x
}

// blocky: eight constant plateaus — zero bias for an 8-bucket histogram.
func blocky() []float64 {
	levels := []float64{400, 2600, 1200, 3400, 800, 2900, 1800, 300}
	x := make([]float64, n)
	for i := range x {
		x[i] = levels[i/(n/len(levels))]
	}
	return x
}

// spiky: two Haar atoms — the extreme-sparsity regime the compressive
// mechanism assumes. (Sparse recovery needs k ≳ 4s·ln(n/s) measurements,
// and the synopsis noise grows with k, so at n = 256 only very sparse
// signals leave CM room to win; reference [17] evaluates at much larger
// n, where the ratio s²·ln(n/s)/n is smaller.)
func spiky(src *lrm.Source) []float64 {
	coeffs := make([]float64, n)
	for _, idx := range []int{0, 9} {
		coeffs[idx] = 15000 + 25000*src.Float64()
	}
	return inverseHaar(coeffs)
}

// inverseHaar inverts the orthonormal Haar transform (same convention as
// the library's internal one; reproduced here so the example stays on the
// public API).
func inverseHaar(c []float64) []float64 {
	out := make([]float64, len(c))
	copy(out, c)
	buf := make([]float64, len(c))
	inv := 1 / math.Sqrt2
	for length := 2; length <= len(c); length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			buf[2*i] = (out[i] + out[half+i]) * inv
			buf[2*i+1] = (out[i] - out[half+i]) * inv
		}
		copy(out[:length], buf[:length])
	}
	return out
}

func main() {
	eps := lrm.Epsilon(0.01) // small budget: noise dominates, synopses shine
	w := lrm.IdentityWorkload(n)
	fmt.Printf("workload: publish all %d counts (identity, full rank), ε = %g\n\n",
		n, float64(eps))

	datasets := []struct {
		name string
		x    []float64
	}{
		{"smooth", smooth()},
		{"blocky", blocky()},
		{"spiky", spiky(lrm.NewSource(4))},
	}
	mechanisms := []lrm.Mechanism{
		lrm.LaplaceData{},
		lrm.Fourier{K: 3},
		lrm.Histogram{Buckets: 8},
		lrm.Compressive{Measurements: 40, Sparsity: 2, Seed: 7},
		lrm.LRM{Options: lrm.DecomposeOptions{MaxOuterIter: 20}},
	}

	fmt.Printf("%-8s", "data")
	for _, mech := range mechanisms {
		fmt.Printf("  %12s", mech.Name())
	}
	fmt.Println("\n--------------------------------------------------------------------------")
	for _, ds := range datasets {
		fmt.Printf("%-8s", ds.name)
		for _, mech := range mechanisms {
			meas, err := lrm.Evaluate(mech, w, ds.x, eps, trials, lrm.NewSource(5))
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %12.4g", meas.AvgSquaredError)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Read along the rows: FPA wins on smooth data (3 of 256 Fourier")
	fmt.Println("coefficients carry everything), NF wins on blocky data (8 v-optimal")
	fmt.Println("buckets have zero bias), CM beats Laplace on wavelet-sparse data (2")
	fmt.Println("Haar atoms recovered from 40 measurements; NF is competitive there")
	fmt.Println("because Haar-sparse signals are also piecewise-constant). Every")
	fmt.Println("synopsis pays a bias on the data it was NOT built for. LRM cannot")
	fmt.Println("beat Laplace here — the identity workload has no query correlation —")
	fmt.Println("which is exactly the paper's point: query-side and data-side")
	fmt.Println("correlations are complementary.")
}

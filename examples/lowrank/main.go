// Lowrank: the regime where the Low-Rank Mechanism wins by orders of
// magnitude — a large batch of analyst queries that are linear
// combinations of a few base aggregates (the paper's WRelated workload).
// Also prints Section 4.1's analysis: Lemma 3's upper bound, Lemma 4's
// asymptotic form (Ω constant dropped, so not a valid lower bound) and
// Theorem 2's ratio of the two.
package main

import (
	"fmt"

	"lrm"
)

func main() {
	const (
		m = 256  // queries issued by analysts
		n = 1024 // histogram bins
		s = 8    // hidden base aggregates: rank(W) = 8
	)
	eps := lrm.Epsilon(0.1)

	w := lrm.RelatedWorkload(m, n, s, lrm.NewSource(11))
	fmt.Printf("workload: %d queries over %d bins, rank %d\n", m, n, w.Rank())

	// Section 4.1's analysis for this workload.
	b := lrm.AnalyzeBounds(w.W, float64(eps))
	fmt.Printf("condition number C = %.2f\n", b.ConditionNumber)
	fmt.Printf("Lemma 3 upper bound: %.4g   Lemma 4 asymptotic form, Ω constant dropped (not a lower bound): %.4g\n", b.Upper, b.Lower)
	fmt.Printf("upper / Lemma 4 form %.2f (Theorem 2 cap %.2f)\n", b.ApproxRatio, b.TheoremTwoBound())

	data := lrm.SocialNetwork(11342, lrm.NewSource(12)).Merge(n)
	const trials = 5
	fmt.Println()
	for _, mech := range []lrm.Mechanism{
		lrm.LaplaceData{},
		lrm.Wavelet{},
		lrm.Hierarchical{},
		lrm.LRM{},
	} {
		meas, err := lrm.Evaluate(mech, w, data.Counts, eps, trials, lrm.NewSource(13))
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-4s  avg squared error %.4g   prepare %.2fs\n",
			mech.Name(), meas.AvgSquaredError, meas.PrepareSeconds)
	}

	d, err := lrm.Decompose(w.W, lrm.DecomposeOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nLRM decomposition: inner dimension %d (vs n = %d unit counts a\n", d.B.Cols(), n)
	fmt.Printf("full-rank strategy would need), analytic SSE %.4g\n", d.ExpectedSSE(float64(eps)))
}

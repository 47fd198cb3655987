package core

import (
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// The identity strategy (B = W, L = I, noise-on-data) is one of the
// candidates Decompose always considers, so its result never loses to
// LM, however starved the optimizer is, and never collapses to the
// identity when the optimizer finds a better low-rank strategy.

func TestDecomposeNeverWorseThanIdentity(t *testing.T) {
	// On a hard full-rank workload with a tiny iteration budget, the
	// optimizer alone can lose to noise-on-data; the identity candidate
	// must cap the error at the NOD level.
	w := workload.Prefix(24)
	opts := Options{
		MaxOuterIter:    5, // deliberately starved
		MaxInnerIter:    2,
		MaxNesterovIter: 10,
	}
	d, err := Decompose(w.W, opts)
	if err != nil {
		t.Fatal(err)
	}
	nod := 2 * mat.SquaredSum(w.W)
	if got := d.ExpectedSSE(1); got > nod*(1+1e-9) {
		t.Fatalf("decomposition SSE %v exceeds NOD %v", got, nod)
	}
	if d.Residual != 0 && d.ExpectedSSE(1) > nod {
		t.Fatal("identity candidate not chosen despite worse objective")
	}
}

func TestDecomposeKeepsLowRankOverIdentity(t *testing.T) {
	// On a low-rank workload the optimizer wins; the identity candidate
	// must not replace it.
	w := workload.Related(24, 40, 3, rng.New(1))
	d, err := Decompose(w.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nod := 2 * mat.SquaredSum(w.W)
	if got := d.ExpectedSSE(1); got > 0.8*nod {
		t.Fatalf("identity candidate degraded a good decomposition: %v vs NOD %v", got, nod)
	}
	// The kept decomposition must not be the identity (rank r ≪ n).
	if d.L.Rows() == d.L.Cols() && d.L.EqualApprox(mat.Eye(d.L.Cols()), 1e-12) {
		t.Fatal("identity strategy returned despite optimizer winning")
	}
}

func TestDecomposeStarvedStillAnswersCorrectly(t *testing.T) {
	w := workload.Prefix(12)
	d, err := Decompose(w.W, Options{MaxOuterIter: 3, MaxInnerIter: 1, MaxNesterovIter: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever branch was chosen, B·L must reconstruct W within the
	// residual and the mechanism must be unbiased.
	recon := mat.Mul(d.B, d.L)
	if !recon.EqualApprox(w.W, d.Residual+1e-6) {
		t.Fatal("starved decomposition does not reconstruct W")
	}
	m, err := NewMechanism(d)
	if err != nil {
		t.Fatal(err)
	}
	x := rng.New(2).UniformVec(12, 0, 100)
	exact := w.Answer(x)
	src := rng.New(3)
	sums := make([]float64, len(exact))
	const trials = 5000
	for i := 0; i < trials; i++ {
		noisy, err := m.Answer(x, 1, src)
		if err != nil {
			t.Fatal(err)
		}
		for j, v := range noisy {
			sums[j] += v
		}
	}
	for j, want := range exact {
		if mean := sums[j] / trials; math.Abs(mean-want) > 0.05*math.Abs(want)+5 {
			t.Fatalf("biased answer %d: %v vs %v", j, mean, want)
		}
	}
}

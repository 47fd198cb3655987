package core

import (
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

func TestDecomposeExactRecovery(t *testing.T) {
	// A low-rank workload must be decomposed with small residual.
	w := workload.Related(20, 30, 3, rng.New(1)).W
	d, err := Decompose(w, Options{Gamma: 1e-3 * mat.FrobeniusNorm(w)})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Converged {
		t.Fatalf("did not converge: residual %v after %d iters", d.Residual, d.OuterIterations)
	}
	if d.Residual > 1e-3*mat.FrobeniusNorm(w) {
		t.Fatalf("residual %v too large", d.Residual)
	}
	recon := mat.Mul(d.B, d.L)
	if !recon.EqualApprox(w, 1e-2*mat.MaxAbs(w)+1e-2) {
		t.Fatal("B·L does not reconstruct W")
	}
}

func TestDecomposeFeasibility(t *testing.T) {
	w := workload.Range(15, 24, rng.New(2)).W
	d, err := Decompose(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// After Normalize, Δ(L) = 1 exactly (within roundoff).
	if delta := d.Sensitivity(); math.Abs(delta-1) > 1e-9 {
		t.Fatalf("Δ(L) = %v, want 1", delta)
	}
	// Every column individually feasible.
	for j := 0; j < d.L.Cols(); j++ {
		var s float64
		for i := 0; i < d.L.Rows(); i++ {
			s += math.Abs(d.L.At(i, j))
		}
		if s > 1+1e-9 {
			t.Fatalf("column %d has L1 norm %v", j, s)
		}
	}
}

func TestDecomposeRankOption(t *testing.T) {
	w := workload.Related(16, 20, 2, rng.New(3)).W
	d, err := Decompose(w, Options{Rank: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.B.Cols() != 5 || d.L.Rows() != 5 {
		t.Fatalf("inner dims %d/%d, want 5", d.B.Cols(), d.L.Rows())
	}
	// Default rank = ceil(1.2·rank(W)) = ceil(2.4) = 3.
	d2, err := Decompose(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.B.Cols() != 3 {
		t.Fatalf("default inner dim = %d, want 3", d2.B.Cols())
	}
}

func TestDecomposeBeatsNoiseOnData(t *testing.T) {
	// The paper's core claim: on correlated workloads, the optimized
	// decomposition yields lower expected error than noise-on-data,
	// whose SSE is 2·ΣWᵢⱼ²/ε² (identity strategy, sensitivity 1).
	// Low-rank workloads: LRM must clearly beat NOD. (On full-rank
	// workloads like Prefix the paper itself shows LM can win at small n —
	// Figure 4 — so no such assertion is made there.)
	src := rng.New(4)
	for _, w := range []*workload.Workload{
		workload.Related(24, 32, 3, src),
		workload.Related(30, 20, 2, src),
	} {
		d, err := Decompose(w.W, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		const eps = 1.0
		lrmSSE := d.ExpectedSSE(eps)
		nodSSE := 2 * mat.SquaredSum(w.W) / (eps * eps)
		if lrmSSE > nodSSE*0.8 {
			t.Fatalf("%s: LRM SSE %v not clearly below NOD %v", w.Name, lrmSSE, nodSSE)
		}
	}
	// Marginal workload (the intro's correlated-counts setting): LRM must
	// be at least competitive with NOD.
	w := workload.Marginal(6, 8)
	d, err := Decompose(w.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lrm, nod := d.ExpectedSSE(1), 2*mat.SquaredSum(w.W); lrm > nod*1.1 {
		t.Fatalf("Marginal: LRM SSE %v much worse than NOD %v", lrm, nod)
	}
}

func TestDecomposeIntroExample(t *testing.T) {
	// Section 1's running example: W for {q1,q2,q3} over 4 states.
	// NOD achieves SSE 40/ε²; the optimal strategy given achieves 39/ε².
	// LRM must do at least as well as NOD and not beat the optimum.
	w := mat.FromRows([][]float64{
		{0, 2, 1, 1},
		{0, 1, 0, 2},
		{1, 0, 2, 2},
	})
	// The paper exhibits a sensitivity-1 strategy achieving 39/ε² and
	// notes NOD achieves 40/ε²; LRM's optimizer finds 38/ε² (the paper's
	// example strategy is illustrative, not globally optimal). Require a
	// genuinely feasible decomposition that beats NOD.
	d, err := Decompose(w, Options{Rank: 3, Gamma: 1e-5, MaxOuterIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Converged || d.Residual > 1e-4 {
		t.Fatalf("not feasible: converged=%v residual=%v", d.Converged, d.Residual)
	}
	sse := d.ExpectedSSE(1)
	if sse > 40 {
		t.Fatalf("LRM SSE %v, want < 40 (NOD)", sse)
	}
	if sse < 35 {
		t.Fatalf("LRM SSE %v suspiciously low (infeasible?)", sse)
	}
}

func TestDecomposeScaleInvariance(t *testing.T) {
	// Lemma 2: rescaling (B,L) -> (αB, L/α) preserves the objective.
	w := workload.Related(10, 12, 2, rng.New(5)).W
	d, err := Decompose(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj := d.Scale() * d.Sensitivity() * d.Sensitivity()
	alpha := 3.7
	b2 := mat.Scale(alpha, d.B)
	l2 := mat.Scale(1/alpha, d.L)
	d2 := &Decomposition{B: b2, L: l2}
	obj2 := d2.Scale() * d2.Sensitivity() * d2.Sensitivity()
	if math.Abs(obj-obj2) > 1e-9*obj {
		t.Fatalf("objective not scale-invariant: %v vs %v", obj, obj2)
	}
}

func TestDecomposeRelaxationLoosensResidual(t *testing.T) {
	w := workload.Range(16, 32, rng.New(6)).W
	norm := mat.FrobeniusNorm(w)
	tight, err := Decompose(w, Options{Gamma: 1e-4 * norm})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Decompose(w, Options{Gamma: 0.3 * norm})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Residual > 0.3*norm+1e-9 {
		t.Fatalf("loose run violated its tolerance: %v", loose.Residual)
	}
	if !tight.Converged || tight.Residual > 1e-4*norm+1e-9 {
		t.Fatalf("tight run did not meet its tolerance: converged=%v residual=%v",
			tight.Converged, tight.Residual)
	}
	// The looser program can only do at least as well on the objective
	// (its feasible set is a superset of the tight one's).
	if loose.ExpectedSSE(1) > tight.ExpectedSSE(1)*(1+0.05) {
		t.Fatalf("loose SSE %v worse than tight %v despite larger feasible set",
			loose.ExpectedSSE(1), tight.ExpectedSSE(1))
	}
}

func TestDecomposeAblationSolvers(t *testing.T) {
	// Both inner solvers must reach comparable objective values.
	w := workload.Related(12, 16, 2, rng.New(7)).W
	dN, err := Decompose(w, Options{Solver: SolverNesterov})
	if err != nil {
		t.Fatal(err)
	}
	dP, err := Decompose(w, Options{Solver: SolverProjectedGradient})
	if err != nil {
		t.Fatal(err)
	}
	if dP.ExpectedSSE(1) > 2*dN.ExpectedSSE(1)+1e-9 {
		t.Fatalf("PG ablation much worse: %v vs %v", dP.ExpectedSSE(1), dN.ExpectedSSE(1))
	}
}

func TestDecomposeFixedPenaltyAblation(t *testing.T) {
	w := workload.Related(10, 12, 2, rng.New(8)).W
	d, err := Decompose(w, Options{BetaDoubleEvery: -1, MaxOuterIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d.B == nil || !d.B.IsFinite() || !d.L.IsFinite() {
		t.Fatal("fixed-penalty ablation produced non-finite factors")
	}
}

func TestDecomposeErrors(t *testing.T) {
	if _, err := Decompose(mat.New(0, 0), Options{}); err == nil {
		t.Fatal("empty workload accepted")
	}
	bad := mat.Eye(3)
	bad.Set(0, 1, math.NaN())
	if _, err := Decompose(bad, Options{}); err == nil {
		t.Fatal("NaN workload accepted")
	}
	bad2 := mat.Eye(3)
	bad2.Set(2, 2, math.Inf(1))
	if _, err := Decompose(bad2, Options{}); err == nil {
		t.Fatal("Inf workload accepted")
	}
	w := mat.Eye(3)
	if _, err := Decompose(w, Options{Rank: -1}); err == nil {
		t.Fatal("negative rank accepted")
	}
	if _, err := Decompose(w, Options{Gamma: -1}); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

// TestDecomposeRejectsInvalidOptions: γ, β(0) and βmax must be finite
// and non-negative (zero still selects the default). A NaN γ used to
// pass the negativity check and leave residual ≤ γ forever false.
func TestDecomposeRejectsInvalidOptions(t *testing.T) {
	w := workload.Related(8, 12, 2, rng.New(3)).W
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opts Options
	}{
		{"negative rank", Options{Rank: -1}},
		{"negative gamma", Options{Gamma: -1}},
		{"NaN gamma", Options{Gamma: nan}},
		{"+Inf gamma", Options{Gamma: inf}},
		{"-Inf gamma", Options{Gamma: -inf}},
		{"negative beta0", Options{Beta0: -1}},
		{"NaN beta0", Options{Beta0: nan}},
		{"+Inf beta0", Options{Beta0: inf}},
		{"-Inf beta0", Options{Beta0: -inf}},
		{"negative betaMax", Options{BetaMax: -1}},
		{"NaN betaMax", Options{BetaMax: nan}},
		{"+Inf betaMax", Options{BetaMax: inf}},
		{"-Inf betaMax", Options{BetaMax: -inf}},
	}
	for _, c := range cases {
		if _, err := Decompose(w, c.opts); err == nil {
			t.Errorf("%s: Decompose accepted %+v", c.name, c.opts)
		}
	}
	if _, err := Decompose(w, Options{Gamma: 0.5, Beta0: 3, BetaMax: 1e6}); err != nil {
		t.Errorf("valid explicit options rejected: %v", err)
	}
}

// TestRunALMSolveFailureKeepsFeasibleStart: when the B-update's SPD
// solve fails, runALM must leave through the shared best-iterate return
// rather than hand back the current iterate as unconverged. An infinite
// penalty (which decompose's validation rejects, so runALM is called
// directly) makes βLLᵀ+I non-finite on the first pass; the feasible
// Lemma-3 start recorded before the loop must then come back as the
// converged result.
func TestRunALMSolveFailureKeepsFeasibleStart(t *testing.T) {
	w := workload.Related(16, 24, 3, rng.New(9)).W
	w = mat.Scale(1/mat.FrobeniusNorm(w), w)
	svd := mat.FactorSVD(w)
	o := (&Options{}).withDefaults(svd)
	o.Beta0 = math.Inf(1)
	const gamma = 1e-4
	b0, l0 := initDecomposition(w, o.Rank, svd)
	probe := newALMState(w, o, gamma, b0, l0)
	initRes := probe.residual()
	if initRes > gamma {
		t.Fatalf("Lemma-3 start residual %v exceeds γ = %v; the test needs a feasible start", initRes, gamma)
	}
	if err := probe.updateB(); err == nil {
		t.Fatal("updateB succeeded with β = +Inf; the test needs a solve failure")
	}
	b, l, res, _, conv := runALM(w, o, gamma, b0, l0)
	if !conv || res != initRes {
		t.Fatalf("runALM after a solve failure: converged=%v residual=%v, want true and the start's %v", conv, res, initRes)
	}
	if !b.Equal(b0) || !l.Equal(l0) {
		t.Fatal("runALM after a solve failure did not return the feasible start")
	}
}

func TestDecomposeIdentityWorkload(t *testing.T) {
	// For W = I the optimal decomposition is essentially B = I, L = I
	// (up to sign/permutation), with SSE 2n/ε², matching noise-on-data.
	n := 8
	d, err := Decompose(mat.Eye(n), Options{Rank: n, Gamma: 1e-6, MaxOuterIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	sse := d.ExpectedSSE(1)
	want := 2 * float64(n)
	if sse > want*1.1 {
		t.Fatalf("identity SSE %v, want <= %v", sse, want*1.1)
	}
}

func TestDecomposeDeterministic(t *testing.T) {
	w := workload.Related(10, 12, 2, rng.New(11)).W
	d1, err := Decompose(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decompose(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d1.B.EqualApprox(d2.B, 1e-12) || !d1.L.EqualApprox(d2.L, 1e-12) {
		t.Fatal("Decompose is not deterministic for identical inputs")
	}
}

func TestDecomposeRandomizedInitMatchesDefault(t *testing.T) {
	// On a genuinely low-rank workload the randomized init must land in
	// the same basin as the exact SVD init: same objective to a few
	// percent, and never above Lemma 3's bound.
	src := rng.New(21)
	w := workload.Related(48, 64, 5, src)
	exact, err := Decompose(w.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Decompose(w.W, Options{RandomizedInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Converged {
		t.Fatal("randomized init did not converge")
	}
	eObj := exact.ExpectedSSE(1)
	fObj := fast.ExpectedSSE(1)
	if fObj > 1.1*eObj {
		t.Fatalf("randomized init objective %g vs exact-init %g", fObj, eObj)
	}
	bounds := AnalyzeBounds(w.W, 1)
	if fObj > bounds.Upper*(1+1e-9) {
		t.Fatalf("randomized init exceeded Lemma 3 bound: %g > %g", fObj, bounds.Upper)
	}
}

func TestDecomposeRandomizedInitExplicitRank(t *testing.T) {
	src := rng.New(22)
	w := workload.Related(32, 40, 4, src)
	d, err := Decompose(w.W, Options{RandomizedInit: true, Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	if d.B.Cols() != 6 || d.L.Rows() != 6 {
		t.Fatalf("rank not honored: B %dx%d, L %dx%d", d.B.Rows(), d.B.Cols(), d.L.Rows(), d.L.Cols())
	}
	if d.Residual > 1e-3*mat.FrobeniusNorm(w.W) {
		t.Fatalf("residual %g too large", d.Residual)
	}
}

func TestDecomposeRandomizedInitFullRankFallsBack(t *testing.T) {
	// A full-rank workload forces the adaptive probe to fall back to the
	// exact SVD; the result must still be valid and feasible.
	w := workload.Prefix(24)
	d, err := Decompose(w.W, Options{RandomizedInit: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Converged {
		t.Fatal("fallback path did not converge")
	}
	if s := d.Sensitivity(); s > 1+1e-9 {
		t.Fatalf("sensitivity %g violates the L1 constraint", s)
	}
}

func TestDecomposeNeverLosesToNOR(t *testing.T) {
	// The marginal workload has sensitivity 2 but large squared sum, the
	// regime where noise-on-results dominates noise-on-data; the optimizer
	// must match or beat the NOR point m·Δ'² (it is a free candidate
	// whenever r ≥ m).
	w := workload.Marginal(12, 12)
	d, err := Decompose(w.W, Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := w.Sensitivity()
	norSSE := 2 * float64(w.Queries()) * delta * delta
	if got := d.ExpectedSSE(1); got > norSSE*(1+1e-6) {
		t.Fatalf("decomposition SSE %g loses to NOR %g", got, norSSE)
	}
	// And it must still not lose to noise-on-data either.
	nodSSE := 2 * w.SquaredSum()
	if got := d.ExpectedSSE(1); got > nodSSE*(1+1e-6) {
		t.Fatalf("decomposition SSE %g loses to NOD %g", got, nodSSE)
	}
}

func TestDecomposeNORCandidateSkippedWhenRankTooSmall(t *testing.T) {
	// With r < m the NOR point does not fit in B's m×r shape; the
	// decomposition must still succeed via the other candidates.
	w := workload.Related(30, 20, 3, rng.New(23))
	d, err := Decompose(w.W, Options{Rank: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.B.Cols() != 5 {
		t.Fatalf("rank not honored: %d", d.B.Cols())
	}
	if !d.Converged {
		t.Fatal("did not converge")
	}
}

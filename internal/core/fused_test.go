package core

import (
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

// TestAnswerManyFusedOnePass pins the fused-noise property of AnswerMany:
// the Laplace perturbation of the intermediate y = L·x happens inside the
// first GEMM's per-tile epilogue (exactly one fused product per call) and
// never as a separate AddLaplaceNoise sweep over y afterwards. The
// counters are process-wide, so the deltas are measured around the call.
func TestAnswerManyFusedOnePass(t *testing.T) {
	w := workload.Related(12, 40, 3, rng.New(9))
	m, _ := testMechanism(t, w.W)
	for _, batch := range []int{1, 8, 64} {
		x := mat.New(40, batch)
		for j := 0; j < batch; j++ {
			x.SetCol(j, rng.New(int64(batch+j)).UniformVec(40, 0, 20))
		}
		epiBefore := mat.FusedEpilogueRuns()
		sweepsBefore := privacy.NoiseSweeps()
		if _, err := m.AnswerMany(x, 1, rng.New(42)); err != nil {
			t.Fatalf("B=%d: %v", batch, err)
		}
		if d := mat.FusedEpilogueRuns() - epiBefore; d != 1 {
			t.Fatalf("B=%d: %d fused-epilogue products, want exactly 1 (noise fused into the first GEMM only)", batch, d)
		}
		if d := privacy.NoiseSweeps() - sweepsBefore; d != 0 {
			t.Fatalf("B=%d: %d separate noise sweeps over the intermediate, want 0 — noise must ride the GEMM epilogue", batch, d)
		}
	}
}

// TestAnswerManyFusedMatchesLoop repeats the BatchAnswerer contract at
// the core layer with a batch wide enough to span multiple scheduler
// tiles in both GEMM dimensions, so the fused epilogue's
// tile-order-independent addition is exercised across rectangle
// boundaries. Each column must equal looping Answer with the same source
// to within 1e-12·max(1, |want|), a bound kept below 1e-6 of the Laplace
// scale Δ/ε so that a reordered or dropped noise draw still fails; the
// same seed must give the same bits on a repeat, and a one-column batch
// must equal Answer bit for bit.
func TestAnswerManyFusedMatchesLoop(t *testing.T) {
	w := workload.Related(20, 300, 4, rng.New(11))
	m, _ := testMechanism(t, w.W)
	const batch, eps = 70, 1
	x := mat.New(300, batch)
	for j := 0; j < batch; j++ {
		x.SetCol(j, rng.New(int64(100+j)).UniformVec(300, 0, 20))
	}
	got, err := m.AnswerMany(x, eps, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	loopSrc := rng.New(5)
	want := mat.New(got.Rows(), batch)
	for j := 0; j < batch; j++ {
		ans, err := m.Answer(x.Col(j), eps, loopSrc)
		if err != nil {
			t.Fatal(err)
		}
		want.SetCol(j, ans)
	}
	var maxTol float64
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < batch; j++ {
			g, w := got.At(i, j), want.At(i, j)
			tol := 1e-12 * math.Max(1, math.Abs(w))
			if math.Abs(g-w) > tol {
				t.Fatalf("column %d row %d = %v, looping Answer says %v", j, i, g, w)
			}
			maxTol = math.Max(maxTol, tol)
		}
	}
	if scale := m.delta / eps; maxTol >= 1e-6*scale {
		t.Fatalf("rounding bound %g is not far below the Laplace scale %g", maxTol, scale)
	}

	again, err := m.AnswerMany(x, eps, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Equal(got) {
		t.Fatal("the same seed released different bits on a repeat")
	}

	one, err := m.AnswerMany(mat.NewFromData(300, 1, x.Col(0)), eps, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	first, err := m.Answer(x.Col(0), eps, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range first {
		if one.At(i, 0) != v {
			t.Fatalf("B=1 row %d = %v, Answer says %v", i, one.At(i, 0), v)
		}
	}
}

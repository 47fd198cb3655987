package core

import (
	"bytes"
	"math"
	"testing"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
	"lrm/internal/workload"
)

func randDense(r, c int, seed int64) *mat.Dense {
	src := rng.New(seed)
	m := mat.New(r, c)
	copy(m.RawData(), src.UniformVec(r*c, -1, 1))
	return m
}

func TestKronMulToMatchesDense(t *testing.T) {
	cases := [][]*mat.Dense{
		{randDense(3, 4, 1)},
		{randDense(3, 4, 1), randDense(2, 5, 2)},
		{randDense(4, 2, 3), randDense(3, 3, 4), randDense(2, 4, 5)},
		{randDense(1, 6, 6), randDense(5, 1, 7)},
	}
	for ci, factors := range cases {
		dense := mat.Eye(1)
		n, m := 1, 1
		for _, f := range factors {
			dense = mat.Kron(dense, f)
			m *= f.Rows()
			n *= f.Cols()
		}
		src := rng.New(int64(100 + ci))
		x := src.UniformVec(n, -2, 2)
		want := mat.MulVec(dense, x)
		dims := make([][2]int, len(factors))
		for i, f := range factors {
			dims[i] = [2]int{f.Rows(), f.Cols()}
		}
		stage, err := mat.KronStages(dims)
		if err != nil {
			t.Fatal(err)
		}
		got := mat.KronMulTo(make([]float64, m), factors, x, make([]float64, 2*stage))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("case %d: KronMulTo[%d] = %g, dense %g", ci, i, got[i], want[i])
			}
		}
	}
}

// kronTestFactors builds small per-dimension workload matrices whose
// product mechanism we can compare against the dense decomposition of
// the materialized Kronecker product.
func kronTestFactors() []*mat.Dense {
	// Prefix(6) and Prefix(4): low-rank-ish, well-conditioned, and their
	// product is exactly the 2-D prefix workload.
	prefix := func(n int) *mat.Dense {
		w := mat.New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				w.Set(i, j, 1)
			}
		}
		return w
	}
	return []*mat.Dense{prefix(6), prefix(4)}
}

func TestDecomposeKron(t *testing.T) {
	factors := kronTestFactors()
	kd, err := DecomposeKron(factors, Options{})
	if err != nil {
		t.Fatalf("DecomposeKron: %v", err)
	}
	if !kd.Converged() {
		t.Fatalf("factor ALM runs did not converge")
	}
	if d := kd.Sensitivity(); math.Abs(d-1) > 1e-9 {
		t.Errorf("Sensitivity %g, want 1 (factors are normalized)", d)
	}

	// The factored strategy is a valid (feasible) strategy for the dense
	// product: (⊗Bᵢ)(⊗Lᵢ) = ⊗(BᵢLᵢ) ≈ ⊗Wᵢ. Verify the reconstruction.
	denseW := mat.Kron(factors[0], factors[1])
	bigB := mat.Kron(kd.Factors[0].B, kd.Factors[1].B)
	bigL := mat.Kron(kd.Factors[0].L, kd.Factors[1].L)
	recon := mat.Mul(bigB, bigL)
	if res := mat.FrobeniusDist(recon, denseW); res > 1e-3*mat.FrobeniusNorm(denseW) {
		t.Errorf("product reconstruction residual %g too large", res)
	}

	// Product identities: Scale and Sensitivity of the assembled strategy
	// equal the factor products.
	if got, want := kd.Scale(), mat.SquaredSum(bigB); math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("Scale %g, assembled %g", got, want)
	}
	if got, want := kd.Sensitivity(), mat.MaxColAbsSum(bigL); math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("Sensitivity %g, assembled %g", got, want)
	}
	wantSSE := (&Decomposition{B: bigB, L: bigL}).ExpectedSSE(0.5)
	if got := kd.ExpectedSSE(0.5); math.Abs(got-wantSSE) > 1e-9*(1+wantSSE) {
		t.Errorf("ExpectedSSE %g, assembled %g", got, wantSSE)
	}
}

// materialize returns the dense matrix of a spec literal such as
// "prefix(8)".
func materialize(t *testing.T, lit string) *mat.Dense {
	t.Helper()
	s, err := workload.ParseSpec(lit)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.MaterializeSpec(s, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	return w.W
}

// TestDecomposeKronRepeatedFactors: factors with identical bits share
// one ALM run, and every entry is bit-identical to a standalone
// Decompose of its matrix. Not parallel: mat.SVDCalls is process-wide,
// and each Decompose factors its matrix exactly once.
func TestDecomposeKronRepeatedFactors(t *testing.T) {
	p, q := materialize(t, "prefix(8)"), materialize(t, "ranges(4)")
	want := make(map[*mat.Dense]*Decomposition)
	for _, w := range []*mat.Dense{p, q} {
		d, err := Decompose(w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[w] = d
	}

	before := mat.SVDCalls()
	factors := []*mat.Dense{p, p, q}
	kd, err := DecomposeKron(factors, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mat.SVDCalls() - before; got != 2 {
		t.Fatalf("DecomposeKron({P,P,Q}) ran %d SVDs, want 2 (one per distinct factor)", got)
	}
	for i, f := range factors {
		got, w := kd.Factors[i], want[f]
		if !sameBits(got.B, w.B) || !sameBits(got.L, w.L) ||
			math.Float64bits(got.Residual) != math.Float64bits(w.Residual) ||
			got.OuterIterations != w.OuterIterations || got.Converged != w.Converged {
			t.Fatalf("factor %d differs from a standalone Decompose of its matrix", i+1)
		}
	}

	// One ulp apart, or −0 where P has +0, is a different matrix: the key
	// is the exact bits, not ==.
	for _, tc := range []struct {
		name string
		at   int
		v    float64
	}{
		{"P+1ulp", 0, math.Nextafter(p.At(0, 0), 2)},
		{"P with -0", 1, math.Copysign(0, -1)},
	} {
		p2 := p.Clone()
		p2.RawData()[tc.at] = tc.v
		before = mat.SVDCalls()
		kd, err = DecomposeKron([]*mat.Dense{p, p2, q}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := mat.SVDCalls() - before; got != 3 {
			t.Fatalf("DecomposeKron({P,%s,Q}) ran %d SVDs, want 3", tc.name, got)
		}
		if kd.Factors[0] == kd.Factors[1] {
			t.Fatalf("%s shares P's decomposition", tc.name)
		}
	}
}

func TestKronMechanismMatchesAssembled(t *testing.T) {
	factors := kronTestFactors()
	kd, err := DecomposeKron(factors, Options{})
	if err != nil {
		t.Fatalf("DecomposeKron: %v", err)
	}
	km, err := NewKronMechanism(kd)
	if err != nil {
		t.Fatalf("NewKronMechanism: %v", err)
	}
	// The assembled dense mechanism over ⊗Bᵢ, ⊗Lᵢ draws the same noise
	// (same r, same Δ, same source) — answers must agree to roundoff.
	assembled, err := NewMechanism(&Decomposition{
		B: mat.Kron(kd.Factors[0].B, kd.Factors[1].B),
		L: mat.Kron(kd.Factors[0].L, kd.Factors[1].L),
	})
	if err != nil {
		t.Fatalf("NewMechanism: %v", err)
	}
	if km.Queries() != 24 || km.Domain() != 24 {
		t.Fatalf("shape %d×%d, want 24×24", km.Queries(), km.Domain())
	}
	eps := privacy.Epsilon(0.7)
	x := rng.New(11).UniformVec(24, 0, 50)
	got, err := km.Answer(x, eps, rng.New(42))
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	want, err := assembled.Answer(x, eps, rng.New(42))
	if err != nil {
		t.Fatalf("assembled Answer: %v", err)
	}
	scale := 1 + mat.VecNorm2(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*scale {
			t.Fatalf("Answer[%d] = %g, assembled %g", i, got[i], want[i])
		}
	}
	if got, want := km.ExpectedSSE(eps), assembled.ExpectedSSE(eps); math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("ExpectedSSE %g, assembled %g", got, want)
	}

	if _, err := km.Answer(x[:5], eps, rng.New(1)); err == nil {
		t.Errorf("short histogram accepted")
	}
	if _, err := km.Answer(x, privacy.Epsilon(0), rng.New(1)); err == nil {
		t.Errorf("zero epsilon accepted")
	}
}

func TestKronDecompositionRoundTrip(t *testing.T) {
	factors := kronTestFactors()
	kd, err := DecomposeKron(factors, Options{})
	if err != nil {
		t.Fatalf("DecomposeKron: %v", err)
	}
	var buf bytes.Buffer
	if err := kd.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := ReadKronDecomposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadKronDecomposition: %v", err)
	}
	if len(got.Factors) != len(kd.Factors) {
		t.Fatalf("%d factors, want %d", len(got.Factors), len(kd.Factors))
	}
	for i := range got.Factors {
		if !got.Factors[i].B.EqualApprox(kd.Factors[i].B, 0) || !got.Factors[i].L.EqualApprox(kd.Factors[i].L, 0) {
			t.Errorf("factor %d not bit-identical after round trip", i+1)
		}
	}

	// Corruption must be rejected, not answered.
	if _, err := ReadKronDecomposition(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Errorf("truncated payload accepted")
	}
	if _, err := ReadKronDecomposition(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Errorf("garbage payload accepted")
	}
	empty := &KronDecomposition{}
	if err := empty.Encode(&bytes.Buffer{}); err == nil {
		t.Errorf("empty kron decomposition encoded")
	}
}

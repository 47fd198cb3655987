package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"lrm/internal/mat"
	"lrm/internal/privacy"
	"lrm/internal/rng"
)

// A Kronecker workload W = W₁⊗…⊗W_d decomposes factor by factor: if
// Wᵢ ≈ Bᵢ·Lᵢ then W ≈ (⊗Bᵢ)·(⊗Lᵢ), and both mechanism quantities
// multiply — Φ(⊗Bᵢ) = ΠΦ(Bᵢ) (Frobenius norms multiply) and
// Δ(⊗Lᵢ) = ΠΔ(Lᵢ) (every column of ⊗Lᵢ is a Kronecker product of
// factor columns, so its L1 norm is the product of theirs). Running
// Algorithm 1 on each small factor therefore yields a valid low-rank
// strategy for the full product at the cost of the factors alone: the
// m×n matrix is never formed, stored, or multiplied.

// KronDecomposition is the factored form of W ≈ B·L for a Kronecker
// workload: one Decomposition per factor, in workload factor order.
type KronDecomposition struct {
	Factors []*Decomposition
}

// DecomposeKron runs Decompose once per distinct factor. opts applies
// per factor (in particular Rank: zero keeps the per-factor 1.2·rank
// default; a positive value caps each factor's inner dimension, not the
// product's).
//
// Factors with the same shape and the same float64 bits (compared
// exactly, so −0 and +0 differ) share one *Decomposition: Decompose is
// deterministic, so the result is bit-for-bit what decomposing each
// factor separately gives, at the cost of the distinct factors alone —
// a square grid such as prefix(N)⊗prefix(N) runs Algorithm 1 once.
// Because entries may alias, the returned decomposition must not be
// mutated (the same contract NewKronMechanism already imposes).
func DecomposeKron(factors []*mat.Dense, opts Options) (*KronDecomposition, error) {
	if len(factors) == 0 {
		return nil, errors.New("core: DecomposeKron with no factors")
	}
	out := &KronDecomposition{Factors: make([]*Decomposition, len(factors))}
	for i, f := range factors {
		if j := slices.IndexFunc(factors[:i], func(p *mat.Dense) bool { return sameBits(p, f) }); j >= 0 {
			out.Factors[i] = out.Factors[j]
			continue
		}
		d, err := Decompose(f, opts)
		if err != nil {
			return nil, fmt.Errorf("core: kron factor %d: %w", i+1, err)
		}
		out.Factors[i] = d
	}
	return out, nil
}

// sameBits reports whether a and b have the same shape and the same
// float64 bits in every entry.
func sameBits(a, b *mat.Dense) bool {
	return a.Rows() == b.Rows() && a.Cols() == b.Cols() &&
		slices.EqualFunc(a.RawData(), b.RawData(), func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// Scale returns Φ(⊗Bᵢ) = Π Φ(Bᵢ).
func (d *KronDecomposition) Scale() float64 {
	p := 1.0
	for _, f := range d.Factors {
		p *= f.Scale()
	}
	return p
}

// Sensitivity returns Δ(⊗Lᵢ) = Π Δ(Lᵢ). Factor decompositions are
// normalized to Δ = 1, so this is 1 up to roundoff for Decompose output.
func (d *KronDecomposition) Sensitivity() float64 {
	p := 1.0
	for _, f := range d.Factors {
		p *= f.Sensitivity()
	}
	return p
}

// ExpectedSSE is Lemma 1 on the product strategy: 2·Φ·Δ²/ε².
func (d *KronDecomposition) ExpectedSSE(eps float64) float64 {
	delta := d.Sensitivity()
	return 2 * d.Scale() * delta * delta / (eps * eps)
}

// Converged reports whether every factor's ALM run converged.
func (d *KronDecomposition) Converged() bool {
	for _, f := range d.Factors {
		if !f.Converged {
			return false
		}
	}
	return true
}

func (d *KronDecomposition) validate() error {
	if d == nil || len(d.Factors) == 0 {
		return errors.New("core: empty kron decomposition")
	}
	for i, f := range d.Factors {
		if f == nil || f.B == nil || f.L == nil {
			return fmt.Errorf("core: kron factor %d is nil", i+1)
		}
		if f.B.Cols() != f.L.Rows() {
			return fmt.Errorf("core: kron factor %d shape mismatch %d×%d · %d×%d",
				i+1, f.B.Rows(), f.B.Cols(), f.L.Rows(), f.L.Cols())
		}
	}
	return nil
}

// dims returns (m, n, r) = (ΠBᵢ.Rows, ΠLᵢ.Cols, ΠBᵢ.Cols) along with the
// scratch each of the two Kronecker products needs, erroring on
// overflow rather than wrapping.
func (d *KronDecomposition) dims() (m, n, r, lScratch, bScratch int, err error) {
	m, n, r = 1, 1, 1
	ldims := make([][2]int, len(d.Factors))
	bdims := make([][2]int, len(d.Factors))
	for i, f := range d.Factors {
		ldims[i] = [2]int{f.L.Rows(), f.L.Cols()}
		bdims[i] = [2]int{f.B.Rows(), f.B.Cols()}
		m *= f.B.Rows()
		n *= f.L.Cols()
		r *= f.L.Rows()
	}
	ls, err := mat.KronStages(ldims)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	bs, err := mat.KronStages(bdims)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	return m, n, r, 2 * ls, 2 * bs, nil
}

// KronMechanism is the Low-Rank Mechanism running on a factored
// strategy: M(Q,D) = (⊗Bᵢ)·((⊗Lᵢ)·x + Lap(Δ/ε)^r), with both products
// applied as mode-product GEMM chains (mat.KronMulTo). Per answer it
// touches O(Σ stage sizes) memory — for the 1024×1024 prefix grid that
// is a few vectors of 2²⁰ floats against a 10¹²-cell matrix.
type KronMechanism struct {
	d      *KronDecomposition
	bs, ls []*mat.Dense
	m, n   int
	r      int
	delta  float64
	// scratch pools one answer's worth of buffers: the r-length noisy
	// intermediate plus the two mode-product stage buffers.
	scratch sync.Pool
}

type kronBuffers struct {
	y      []float64 // (⊗Lᵢ)·x, then its noisy release
	lStage []float64
	bStage []float64
}

// NewKronMechanism wraps a factored decomposition as a query-answering
// mechanism. The decomposition must not be mutated afterwards.
func NewKronMechanism(d *KronDecomposition) (*KronMechanism, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	m, n, r, lScratch, bScratch, err := d.dims()
	if err != nil {
		return nil, err
	}
	k := &KronMechanism{d: d, m: m, n: n, r: r, delta: d.Sensitivity()}
	for _, f := range d.Factors {
		k.bs = append(k.bs, f.B)
		k.ls = append(k.ls, f.L)
	}
	k.scratch.New = func() any {
		return &kronBuffers{
			y:      make([]float64, r),
			lStage: make([]float64, lScratch),
			bStage: make([]float64, bScratch),
		}
	}
	return k, nil
}

// Answer releases ε-differentially-private answers to the factored
// workload on the histogram x. Only the returned answer slice is
// allocated per call.
func (k *KronMechanism) Answer(x []float64, eps privacy.Epsilon, src *rng.Source) ([]float64, error) {
	if err := eps.Validate(); err != nil {
		return nil, err
	}
	if len(x) != k.n {
		return nil, fmt.Errorf("core: data length %d != domain %d", len(x), k.n)
	}
	buf := k.scratch.Get().(*kronBuffers)
	mat.KronMulTo(buf.y, k.ls, x, buf.lStage)
	if err := privacy.AddLaplaceNoise(buf.y, k.delta, eps, src); err != nil {
		k.scratch.Put(buf)
		return nil, err
	}
	out := mat.KronMulTo(make([]float64, k.m), k.bs, buf.y, buf.bStage)
	k.scratch.Put(buf)
	return out, nil
}

// ExpectedSSE returns Lemma 1's analytic expected error for this
// strategy.
func (k *KronMechanism) ExpectedSSE(eps privacy.Epsilon) float64 {
	return k.d.ExpectedSSE(float64(eps))
}

// Decomposition returns the underlying factored strategy.
func (k *KronMechanism) Decomposition() *KronDecomposition { return k.d }

// Queries and Domain report the product shape.
func (k *KronMechanism) Queries() int { return k.m }
func (k *KronMechanism) Domain() int  { return k.n }

// kronWire is the gob wire form of a KronDecomposition: the factor wire
// forms in order.
type kronWire struct {
	Factors []decompositionWire
}

// maxKronWireFactors bounds what an untrusted cache file may ask this
// process to assemble.
const maxKronWireFactors = 64

// Encode serializes the factored decomposition.
func (d *KronDecomposition) Encode(w io.Writer) error {
	if err := d.validate(); err != nil {
		return err
	}
	wire := kronWire{Factors: make([]decompositionWire, len(d.Factors))}
	for i, f := range d.Factors {
		wire.Factors[i] = f.wire()
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: encoding kron decomposition: %w", err)
	}
	return nil
}

// ReadKronDecomposition deserializes a factored decomposition written by
// Encode, re-validating every factor with the same scrutiny as the dense
// reader (the payload is an untrusted cache file).
func ReadKronDecomposition(r io.Reader) (*KronDecomposition, error) {
	var wire kronWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decoding kron decomposition: %w", err)
	}
	if len(wire.Factors) == 0 || len(wire.Factors) > maxKronWireFactors {
		return nil, fmt.Errorf("core: kron decomposition with %d factors", len(wire.Factors))
	}
	d := &KronDecomposition{Factors: make([]*Decomposition, len(wire.Factors))}
	for i := range wire.Factors {
		f, err := wire.Factors[i].decomposition()
		if err != nil {
			return nil, fmt.Errorf("core: kron factor %d: %w", i+1, err)
		}
		d.Factors[i] = f
	}
	// The factor dims must compose without overflow, or the first Answer
	// would panic far from the corrupt input.
	if _, _, _, _, _, err := d.dims(); err != nil {
		return nil, err
	}
	return d, nil
}

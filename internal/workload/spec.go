package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"lrm/internal/mat"
)

// Spec is an implicit workload: the m×n query matrix W described by its
// structure instead of its entries, so m and n can reach the millions
// that a dense Workload (m·n float64s) cannot. Everything the planner,
// the mechanisms, and the engine need — exact answers, Gram-vector
// products, sensitivity, the squared sum, a stable cache key — is
// computable from the structure in O(m+n) space.
//
// A Spec is immutable after construction and safe for concurrent use.
// Dense workloads participate through the AsSpec adapter, so one serving
// path covers both representations.
type Spec interface {
	// Queries returns m, the number of linear queries.
	Queries() int
	// Domain returns n, the number of unit counts.
	Domain() int
	// AnswerTo computes the exact batch answer W·x into dst and returns
	// it. len(x) must be Domain() and len(dst) must be Queries().
	AnswerTo(dst, x []float64) []float64
	// GramMulTo computes the Gram-vector product (WᵀW)·x into dst and
	// returns it; both slices have Domain() entries. It is the implicit
	// handle iterative analyses (Lanczos, least-squares solvers) need, and
	// never materializes WᵀW.
	GramMulTo(dst, x []float64) []float64
	// Sensitivity returns the L1 sensitivity Δ' = max_j Σᵢ|Wᵢⱼ|.
	Sensitivity() float64
	// SquaredSum returns ΣWᵢⱼ² (the noise-on-data baseline's error
	// driver).
	SquaredSum() float64
	// Digest is a stable, filename-safe content hash: two Specs digest
	// equal iff they describe bit-identical workload matrices. Engines
	// key caches on it — a few hex bytes instead of hashing a matrix
	// that never exists.
	Digest() string
	// Describe renders the compact canonical description (the grammar
	// ParseSpec accepts, for every kind but dense). It doubles as the
	// spec's display name.
	Describe() string
}

// specDigest hashes a canonical description into the filename-safe hex
// form every structural Spec uses. The "lrm-spec" prefix keeps the hash
// domain disjoint from matrix fingerprints.
func specDigest(parts ...string) string {
	h := sha256.New()
	h.Write([]byte("lrm-spec\x00"))
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SpecFingerprint is the engine cache key for a spec-served workload:
// the spec digest under a "spec-" namespace, so implicit entries can
// never collide with (or be served by) dense-fingerprint artifacts.
func SpecFingerprint(s Spec) string { return "spec-" + s.Digest() }

// maxSpecDim bounds any single dimension a Spec may declare; products
// are additionally checked for int overflow at construction.
const maxSpecDim = 1 << 40

func checkSpecDims(m, n int) {
	if m < 1 || n < 1 || m > maxSpecDim || n > maxSpecDim {
		panic(fmt.Sprintf("workload: spec needs 1 <= m,n <= 2^40, got m=%d n=%d", m, n))
	}
}

// checkAnswerShapes validates an AnswerTo call's slice lengths.
func checkAnswerShapes(kind string, dst, x []float64, m, n int) {
	if len(x) != n {
		panic(fmt.Sprintf("workload: %s AnswerTo data length %d != domain %d", kind, len(x), n))
	}
	if len(dst) != m {
		panic(fmt.Sprintf("workload: %s AnswerTo dst length %d != queries %d", kind, len(dst), m))
	}
}

// checkGramShapes validates a GramMulTo call's slice lengths.
func checkGramShapes(kind string, dst, x []float64, n int) {
	if len(x) != n || len(dst) != n {
		panic(fmt.Sprintf("workload: %s GramMulTo lengths %d,%d != domain %d", kind, len(dst), len(x), n))
	}
}

// ---------------------------------------------------------------------
// Dense adapter

// DenseSpec adapts a dense Workload to the Spec interface, so every
// existing call site (and every workload with no exploitable structure)
// rides the same serving path. Its Digest equals the engine's dense
// matrix fingerprint (core.Fingerprint): same bits, same key.
type DenseSpec struct {
	w      *Workload
	sens   float64
	sq     float64
	digest string
	// scratch pools the m-length intermediate of GramMulTo.
	scratch sync.Pool
}

// AsSpec wraps a dense workload as a Spec. The workload must not be
// mutated afterwards (sensitivity, squared sum, and digest are cached).
func AsSpec(w *Workload) *DenseSpec {
	if w == nil || w.W == nil {
		panic("workload: AsSpec of nil workload")
	}
	d := &DenseSpec{
		w:      w,
		sens:   w.Sensitivity(),
		sq:     w.SquaredSum(),
		digest: matrixFingerprint(w.W),
	}
	m := w.Queries()
	d.scratch.New = func() any {
		buf := make([]float64, m)
		return &buf
	}
	return d
}

// matrixFingerprint is core.Fingerprint's exact hash — SHA-256 over the
// dimensions and the IEEE-754 bits of every entry — re-implemented here
// because workload sits below core in the import order. The equality is
// pinned by a test; keep the two in sync.
func matrixFingerprint(w *mat.Dense) string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(w.Rows()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(w.Cols()))
	h.Write(hdr[:])
	var chunk [1024]byte
	data := w.RawData()
	for len(data) > 0 {
		n := len(chunk) / 8
		if n > len(data) {
			n = len(data)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(chunk[i*8:], math.Float64bits(data[i]))
		}
		h.Write(chunk[:n*8])
		data = data[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Dense returns the wrapped workload.
func (d *DenseSpec) Dense() *Workload { return d.w }

// Queries implements Spec.
func (d *DenseSpec) Queries() int { return d.w.Queries() }

// Domain implements Spec.
func (d *DenseSpec) Domain() int { return d.w.Domain() }

// AnswerTo implements Spec.
func (d *DenseSpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("dense", dst, x, d.w.Queries(), d.w.Domain())
	return mat.MulVecTo(dst, d.w.W, x)
}

// GramMulTo implements Spec: Wᵀ(W·x) through the pooled m-vector.
func (d *DenseSpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("dense", dst, x, d.w.Domain())
	bufp := d.scratch.Get().(*[]float64)
	mat.MulVecTo(*bufp, d.w.W, x)
	mat.MulVecTTo(dst, d.w.W, *bufp)
	d.scratch.Put(bufp)
	return dst
}

// Sensitivity implements Spec.
func (d *DenseSpec) Sensitivity() float64 { return d.sens }

// SquaredSum implements Spec.
func (d *DenseSpec) SquaredSum() float64 { return d.sq }

// Digest implements Spec; equals core.Fingerprint of the wrapped matrix.
func (d *DenseSpec) Digest() string { return d.digest }

// Describe implements Spec. Dense matrices have no compact grammar, so
// the description names the shape and a digest prefix; ParseSpec rejects
// the "dense" kind with a pointer to the CSV path.
func (d *DenseSpec) Describe() string {
	return fmt.Sprintf("dense:%dx%d:%s", d.w.Queries(), d.w.Domain(), d.digest[:12])
}

// ---------------------------------------------------------------------
// Prefix workload

// PrefixSpec is the n prefix-sum queries q_i = x_0 + … + x_i in implicit
// form: answers are one running sum, the Gram matrix has the closed form
// G_jk = n − max(j,k) (two-pass O(n) products), and the full spectrum is
// known analytically — no factorization ever runs.
type PrefixSpec struct {
	n int
}

// NewPrefixSpec returns the implicit prefix workload over n counts.
func NewPrefixSpec(n int) *PrefixSpec {
	checkSpecDims(n, n)
	return &PrefixSpec{n: n}
}

// Queries implements Spec.
func (p *PrefixSpec) Queries() int { return p.n }

// Domain implements Spec.
func (p *PrefixSpec) Domain() int { return p.n }

// AnswerTo implements Spec: one running sum.
func (p *PrefixSpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("prefix", dst, x, p.n, p.n)
	sum := 0.0
	for i, v := range x {
		sum += v
		dst[i] = sum
	}
	return dst
}

// GramMulTo implements Spec. With G_jk = n − max(j,k),
//
//	(G·x)_j = (n−j)·Σ_{k≤j} x_k + Σ_{k>j} (n−k)·x_k,
//
// computed in two passes: a forward prefix sum and a backward weighted
// suffix sum.
func (p *PrefixSpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("prefix", dst, x, p.n)
	n := p.n
	// Backward pass: dst[j] temporarily holds T_j = Σ_{k>j} (n−k)·x_k.
	t := 0.0
	for j := n - 1; j >= 0; j-- {
		dst[j] = t
		t += float64(n-j) * x[j]
	}
	// Forward pass folds in (n−j)·P_j.
	prefix := 0.0
	for j := 0; j < n; j++ {
		prefix += x[j]
		dst[j] += float64(n-j) * prefix
	}
	return dst
}

// Sensitivity implements Spec: column 0 appears in every query, Δ' = n.
func (p *PrefixSpec) Sensitivity() float64 { return float64(p.n) }

// SquaredSum implements Spec: Σᵢ(i+1) = n(n+1)/2.
func (p *PrefixSpec) SquaredSum() float64 {
	n := float64(p.n)
	return n * (n + 1) / 2
}

// Digest implements Spec.
func (p *PrefixSpec) Digest() string { return specDigest(p.Describe()) }

// Describe implements Spec.
func (p *PrefixSpec) Describe() string { return fmt.Sprintf("prefix(%d)", p.n) }

// singularValues returns the closed-form spectrum of the prefix matrix,
// σ_k = 1 / (2·sin((2k−1)π / (2(2n+1)))) for k = 1…n, descending.
func (p *PrefixSpec) singularValues() []float64 {
	s := make([]float64, p.n)
	for k := 1; k <= p.n; k++ {
		s[k-1] = 1 / (2 * math.Sin(float64(2*k-1)*math.Pi/float64(2*(2*p.n+1))))
	}
	return s
}

// ---------------------------------------------------------------------
// All contiguous ranges

// AllRangesSpec is every contiguous range query over the domain —
// m = n(n+1)/2 queries — in implicit form. The Gram matrix is the
// scaled Green's function of the discrete Laplacian,
// G_jk = (min(j,k)+1)·(n − max(j,k)), so Gram products are O(n) and the
// spectrum is closed-form.
type AllRangesSpec struct {
	n int
	m int
}

// NewAllRangesSpec returns the implicit all-ranges workload over n
// counts. Answering requires materializing the m = n(n+1)/2 results, so
// n is bounded by how many answers the caller can hold, not by any m×n
// matrix.
func NewAllRangesSpec(n int) *AllRangesSpec {
	checkSpecDims(n, n)
	if n > 1<<26 {
		panic(fmt.Sprintf("workload: ranges(%d) would have %d·(%d+1)/2 queries; answers could not be materialized", n, n, n))
	}
	return &AllRangesSpec{n: n, m: n * (n + 1) / 2}
}

// Queries implements Spec.
func (r *AllRangesSpec) Queries() int { return r.m }

// Domain implements Spec.
func (r *AllRangesSpec) Domain() int { return r.n }

// AnswerTo implements Spec: prefix sums once, then each range answer is
// one subtraction, in the same (a ascending, b ascending) query order as
// the dense AllRanges generator.
func (r *AllRangesSpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("ranges", dst, x, r.m, r.n)
	i := 0
	for a := 0; a < r.n; a++ {
		sum := 0.0
		for b := a; b < r.n; b++ {
			sum += x[b]
			dst[i] = sum
			i++
		}
	}
	return dst
}

// GramMulTo implements Spec. With G_jk = (min(j,k)+1)(n − max(j,k)),
//
//	(G·x)_j = (j+1)·Σ_{k≥j} (n−k)·x_k + (n−j)·Σ_{k<j} (k+1)·x_k,
//
// two weighted scans.
func (r *AllRangesSpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("ranges", dst, x, r.n)
	n := r.n
	// Backward: dst[j] holds S1_j = Σ_{k≥j} (n−k)·x_k.
	s1 := 0.0
	for j := n - 1; j >= 0; j-- {
		s1 += float64(n-j) * x[j]
		dst[j] = float64(j+1) * s1
	}
	// Forward folds in (n−j)·S2_j with S2_j = Σ_{k<j} (k+1)·x_k.
	s2 := 0.0
	for j := 0; j < n; j++ {
		dst[j] += float64(n-j) * s2
		s2 += float64(j+1) * x[j]
	}
	return dst
}

// Sensitivity implements Spec: column j lies in (j+1)(n−j) ranges; the
// maximum is at the middle.
func (r *AllRangesSpec) Sensitivity() float64 {
	best := 0.0
	// (j+1)(n−j) is concave in j; evaluate the two integer points around
	// the vertex instead of scanning.
	n := r.n
	for _, j := range []int{(n - 1) / 2, n / 2} {
		if v := float64(j+1) * float64(n-j); v > best {
			best = v
		}
	}
	return best
}

// SquaredSum implements Spec: Σ over ranges of their length,
// n(n+1)(n+2)/6.
func (r *AllRangesSpec) SquaredSum() float64 {
	n := float64(r.n)
	return n * (n + 1) * (n + 2) / 6
}

// Digest implements Spec.
func (r *AllRangesSpec) Digest() string { return specDigest(r.Describe()) }

// Describe implements Spec.
func (r *AllRangesSpec) Describe() string { return fmt.Sprintf("ranges(%d)", r.n) }

// singularValues returns the closed-form spectrum: G = (n+1)·T⁻¹ with T
// the [−1,2,−1] second-difference matrix, whose eigenvalues are
// 4·sin²(kπ/(2(n+1))), so σ_k = √(n+1) / (2·sin(kπ/(2(n+1)))),
// descending for k = 1…n.
func (r *AllRangesSpec) singularValues() []float64 {
	s := make([]float64, r.n)
	for k := 1; k <= r.n; k++ {
		s[k-1] = math.Sqrt(float64(r.n+1)) / (2 * math.Sin(float64(k)*math.Pi/float64(2*(r.n+1))))
	}
	return s
}

// ---------------------------------------------------------------------
// Identity and total

// IdentitySpec is the n-query identity workload in implicit form.
type IdentitySpec struct {
	n int
}

// NewIdentitySpec returns the implicit identity workload over n counts.
func NewIdentitySpec(n int) *IdentitySpec {
	checkSpecDims(n, n)
	return &IdentitySpec{n: n}
}

// Queries implements Spec.
func (s *IdentitySpec) Queries() int { return s.n }

// Domain implements Spec.
func (s *IdentitySpec) Domain() int { return s.n }

// AnswerTo implements Spec.
func (s *IdentitySpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("identity", dst, x, s.n, s.n)
	copy(dst, x)
	return dst
}

// GramMulTo implements Spec: WᵀW = I.
func (s *IdentitySpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("identity", dst, x, s.n)
	copy(dst, x)
	return dst
}

// Sensitivity implements Spec.
func (s *IdentitySpec) Sensitivity() float64 { return 1 }

// SquaredSum implements Spec.
func (s *IdentitySpec) SquaredSum() float64 { return float64(s.n) }

// Digest implements Spec.
func (s *IdentitySpec) Digest() string { return specDigest(s.Describe()) }

// Describe implements Spec.
func (s *IdentitySpec) Describe() string { return fmt.Sprintf("identity(%d)", s.n) }

// TotalSpec is the single query summing the whole domain.
type TotalSpec struct {
	n int
}

// NewTotalSpec returns the implicit total-count workload over n counts.
func NewTotalSpec(n int) *TotalSpec {
	checkSpecDims(1, n)
	return &TotalSpec{n: n}
}

// Queries implements Spec.
func (s *TotalSpec) Queries() int { return 1 }

// Domain implements Spec.
func (s *TotalSpec) Domain() int { return s.n }

// AnswerTo implements Spec.
func (s *TotalSpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("total", dst, x, 1, s.n)
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	dst[0] = sum
	return dst
}

// GramMulTo implements Spec: WᵀW is the all-ones matrix.
func (s *TotalSpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("total", dst, x, s.n)
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	for i := range dst {
		dst[i] = sum
	}
	return dst
}

// Sensitivity implements Spec.
func (s *TotalSpec) Sensitivity() float64 { return 1 }

// SquaredSum implements Spec.
func (s *TotalSpec) SquaredSum() float64 { return float64(s.n) }

// Digest implements Spec.
func (s *TotalSpec) Digest() string { return specDigest(s.Describe()) }

// Describe implements Spec.
func (s *TotalSpec) Describe() string { return fmt.Sprintf("total(%d)", s.n) }

// ---------------------------------------------------------------------
// Kronecker products

// KronSpec is the Kronecker product W = F₀ ⊗ F₁ ⊗ … ⊗ F_{d−1} of
// (small) factor workloads, the structure real multidimensional
// workloads have: a range workload per attribute, combined over the
// flattened cross-product domain. The product matrix — m = Πmᵢ by
// n = Πnᵢ, easily 10¹²+ cells — is never formed: answers and Gram
// products run as d passes of per-factor row operations on O(m+n)
// buffers (the tensor mode-product algorithm), and sensitivity, squared
// sum, and the spectrum all multiply across factors.
type KronSpec struct {
	factors []Spec
	m, n    int
	// maxStage is the largest intermediate vector the mode products
	// touch; two pooled buffers of this size serve every call.
	maxStage int
	scratch  sync.Pool
}

// NewKronSpec returns the Kronecker product of the given factor specs
// (at least one; nested KronSpecs are flattened — ⊗ is associative).
// Index order matches mat.Kron and the flattening of the cross-product
// domain: the first factor varies slowest.
func NewKronSpec(factors ...Spec) *KronSpec {
	flat := make([]Spec, 0, len(factors))
	for _, f := range factors {
		if f == nil {
			panic("workload: NewKronSpec with nil factor")
		}
		if k, ok := f.(*KronSpec); ok {
			flat = append(flat, k.factors...)
			continue
		}
		flat = append(flat, f)
	}
	if len(flat) == 0 {
		panic("workload: NewKronSpec of nothing")
	}
	k := &KronSpec{factors: flat, m: 1, n: 1}
	for _, f := range flat {
		k.m = mulDim("kron queries", k.m, f.Queries())
		k.n = mulDim("kron domain", k.n, f.Domain())
	}
	// Stage sizes while applying factors trailing-first: after step i the
	// leading modes still hold input sizes and the processed trailing
	// modes hold output sizes.
	k.maxStage = k.n
	stage := k.n
	for i := len(flat) - 1; i >= 0; i-- {
		stage = stage / flat[i].Domain() * flat[i].Queries()
		if stage > k.maxStage {
			k.maxStage = stage
		}
	}
	size := k.maxStage
	k.scratch.New = func() any {
		buf := make([]float64, 2*size)
		return &buf
	}
	return k
}

// mulDim multiplies dimensions with an overflow guard.
func mulDim(what string, a, b int) int {
	if b != 0 && a > maxSpecDim/b {
		panic(fmt.Sprintf("workload: %s overflows: %d × %d", what, a, b))
	}
	return a * b
}

// Factors returns the factor specs (do not mutate).
func (k *KronSpec) Factors() []Spec { return k.factors }

// Queries implements Spec.
func (k *KronSpec) Queries() int { return k.m }

// Domain implements Spec.
func (k *KronSpec) Domain() int { return k.n }

// AnswerTo implements Spec via mode products: viewing x as a d-way
// tensor, each factor is applied along its mode as contiguous per-row
// AnswerTo calls followed by a buffer transpose that rotates the next
// mode into trailing position. d passes, O(maxStage) memory, and the
// full product matrix never exists.
func (k *KronSpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("kron", dst, x, k.m, k.n)
	k.apply(dst, x, false)
	return dst
}

// GramMulTo implements Spec: (⊗Fᵢ)ᵀ(⊗Fᵢ) = ⊗(FᵢᵀFᵢ), so the same mode
// algorithm runs with each factor's GramMulTo (square, no shape change).
func (k *KronSpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("kron", dst, x, k.n)
	k.apply(dst, x, true)
	return dst
}

// apply runs the shared mode-product loop. For each factor, trailing
// mode first: the current tensor (P rows × width columns, row-major) is
// mapped row-by-row through the factor, then transposed so the next
// mode becomes trailing. After d apply+rotate steps the layout is the
// output tensor in row-major order.
func (k *KronSpec) apply(dst, x []float64, gram bool) {
	bufp := k.scratch.Get().(*[]float64)
	a := (*bufp)[:k.maxStage]
	b := (*bufp)[k.maxStage:]
	cur := x
	size := k.n
	for i := len(k.factors) - 1; i >= 0; i-- {
		f := k.factors[i]
		in, out := f.Domain(), f.Queries()
		if gram {
			out = in
		}
		rows := size / in
		for p := 0; p < rows; p++ {
			if gram {
				f.GramMulTo(b[p*out:(p+1)*out], cur[p*in:(p+1)*in])
			} else {
				f.AnswerTo(b[p*out:(p+1)*out], cur[p*in:(p+1)*in])
			}
		}
		size = rows * out
		// Rotate: (rows × out) → (out × rows), writing into a (never
		// aliased with b).
		transposeInto(a, b, rows, out)
		cur = a
	}
	copy(dst, cur[:size])
	k.scratch.Put(bufp)
}

// transposeInto writes the r×c row-major matrix src into dst as its c×r
// transpose. Cache-blocked the simple way; stage sizes here are far
// smaller than the dense products this package replaces.
func transposeInto(dst, src []float64, r, c int) {
	const blk = 64
	for i0 := 0; i0 < r; i0 += blk {
		i1 := i0 + blk
		if i1 > r {
			i1 = r
		}
		for j0 := 0; j0 < c; j0 += blk {
			j1 := j0 + blk
			if j1 > c {
				j1 = c
			}
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					dst[j*r+i] = src[i*c+j]
				}
			}
		}
	}
}

// Sensitivity implements Spec: a Kronecker column's absolute sum is the
// product of its factor columns' sums, so Δ'(⊗Fᵢ) = ΠΔ'(Fᵢ).
func (k *KronSpec) Sensitivity() float64 {
	p := 1.0
	for _, f := range k.factors {
		p *= f.Sensitivity()
	}
	return p
}

// SquaredSum implements Spec: Σ(⊗Fᵢ)² = ΠΣFᵢ².
func (k *KronSpec) SquaredSum() float64 {
	p := 1.0
	for _, f := range k.factors {
		p *= f.SquaredSum()
	}
	return p
}

// Digest implements Spec: a hash over the factor digests in order, so
// any factor change (including a dense factor's data) changes the key.
func (k *KronSpec) Digest() string {
	parts := make([]string, 0, len(k.factors)+1)
	parts = append(parts, "kron")
	for _, f := range k.factors {
		parts = append(parts, f.Digest())
	}
	return specDigest(parts...)
}

// Describe implements Spec.
func (k *KronSpec) Describe() string {
	parts := make([]string, len(k.factors))
	for i, f := range k.factors {
		parts[i] = f.Describe()
	}
	return "kron:" + strings.Join(parts, "x")
}

// ---------------------------------------------------------------------
// k-way marginals

// MarginalSpec is the k-way marginal workload over a d-attribute domain
// with per-attribute cardinalities dims: for every size-k attribute
// subset S, one query per cell of the S-projection (the Kronecker block
// ⊗ᵢ (Identity if i∈S else Total)). This is the workload OLAP data
// cubes actually ask, with C(d,k) structured blocks instead of a dense
// matrix over the full cross-product domain.
type MarginalSpec struct {
	dims    []int
	k       int
	n       int
	m       int
	blocks  []*KronSpec
	subsets [][]int
	scratch sync.Pool
}

// maxMarginalBlocks bounds C(d,k); past it answering (one block of
// output per subset) stops being meaningful.
const maxMarginalBlocks = 1 << 16

// NewMarginalSpec returns the k-way marginal workload over the given
// attribute cardinalities.
func NewMarginalSpec(dims []int, k int) *MarginalSpec {
	if len(dims) == 0 {
		panic("workload: NewMarginalSpec with no dimensions")
	}
	if k < 1 || k > len(dims) {
		panic(fmt.Sprintf("workload: marginal k=%d out of range 1..%d", k, len(dims)))
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			panic(fmt.Sprintf("workload: marginal dimension %d < 1", d))
		}
		n = mulDim("marginal domain", n, d)
	}
	ms := &MarginalSpec{dims: append([]int(nil), dims...), k: k, n: n}
	ms.subsets = subsetsOf(len(dims), k)
	if len(ms.subsets) > maxMarginalBlocks {
		panic(fmt.Sprintf("workload: marginals over %d attributes choose %d has %d blocks (max %d)",
			len(dims), k, len(ms.subsets), maxMarginalBlocks))
	}
	for _, sub := range ms.subsets {
		factors := make([]Spec, len(dims))
		inS := make(map[int]bool, k)
		for _, i := range sub {
			inS[i] = true
		}
		for i, d := range dims {
			if inS[i] {
				factors[i] = NewIdentitySpec(d)
			} else {
				factors[i] = NewTotalSpec(d)
			}
		}
		blk := NewKronSpec(factors...)
		ms.m += blk.Queries()
		ms.blocks = append(ms.blocks, blk)
	}
	size := n
	ms.scratch.New = func() any {
		buf := make([]float64, size)
		return &buf
	}
	return ms
}

// subsetsOf enumerates the size-k subsets of {0..d−1} in lexicographic
// order (deterministic: slices, never map iteration).
func subsetsOf(d, k int) [][]int {
	var out [][]int
	sub := make([]int, k)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == k {
			out = append(out, append([]int(nil), sub...))
			return
		}
		for i := start; i <= d-(k-idx); i++ {
			sub[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
	return out
}

// Dims returns the attribute cardinalities (do not mutate).
func (ms *MarginalSpec) Dims() []int { return ms.dims }

// K returns the marginal order.
func (ms *MarginalSpec) K() int { return ms.k }

// Queries implements Spec: Σ over subsets of the projection sizes.
func (ms *MarginalSpec) Queries() int { return ms.m }

// Domain implements Spec.
func (ms *MarginalSpec) Domain() int { return ms.n }

// AnswerTo implements Spec: each block answers its projection into its
// slice of dst, blocks in subset order.
func (ms *MarginalSpec) AnswerTo(dst, x []float64) []float64 {
	checkAnswerShapes("marginals", dst, x, ms.m, ms.n)
	off := 0
	for _, blk := range ms.blocks {
		blk.AnswerTo(dst[off:off+blk.Queries()], x)
		off += blk.Queries()
	}
	return dst
}

// GramMulTo implements Spec: the Gram of a stack is the sum of the
// blocks' Grams.
func (ms *MarginalSpec) GramMulTo(dst, x []float64) []float64 {
	checkGramShapes("marginals", dst, x, ms.n)
	bufp := ms.scratch.Get().(*[]float64)
	buf := *bufp
	for i := range dst {
		dst[i] = 0
	}
	for _, blk := range ms.blocks {
		blk.GramMulTo(buf, x)
		for i := range dst {
			dst[i] += buf[i]
		}
	}
	ms.scratch.Put(bufp)
	return dst
}

// Sensitivity implements Spec: every block has column sums exactly 1
// (each cell lands in one projection bucket), so Δ' = C(d,k).
func (ms *MarginalSpec) Sensitivity() float64 { return float64(len(ms.blocks)) }

// SquaredSum implements Spec: each block has exactly one unit entry per
// column, so ΣW² = C(d,k)·n.
func (ms *MarginalSpec) SquaredSum() float64 {
	return float64(len(ms.blocks)) * float64(ms.n)
}

// Digest implements Spec.
func (ms *MarginalSpec) Digest() string { return specDigest(ms.Describe()) }

// Describe implements Spec.
func (ms *MarginalSpec) Describe() string {
	parts := make([]string, len(ms.dims))
	for i, d := range ms.dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return fmt.Sprintf("marginals(%s;k=%d)", strings.Join(parts, ","), ms.k)
}

// gramEigenvalues returns the distinct eigenvalues of WᵀW with their
// multiplicities, descending. The blocks' Grams commute (each is a
// Kronecker product of I and the all-ones J over the same slots), so
// the joint eigenspaces are indexed by the attribute subsets T whose
// slot carries the mean-orthogonal component:
//
//	λ_T = Σ_{S ⊇ T, |S|=k} Π_{i∉S} dims[i],   multiplicity Π_{i∈T}(dims[i]−1),
//
// nonzero exactly when |T| ≤ k.
func (ms *MarginalSpec) gramEigenvalues() (vals []float64, mult []float64) {
	d := len(ms.dims)
	type eig struct{ v, m float64 }
	var all []eig
	for t := 0; t <= ms.k; t++ {
		for _, T := range subsetsOf(d, t) {
			inT := make(map[int]bool, t)
			for _, i := range T {
				inT[i] = true
			}
			lambda := 0.0
			for _, S := range ms.subsets {
				inS := make(map[int]bool, ms.k)
				superset := true
				for _, i := range S {
					inS[i] = true
				}
				for _, i := range T {
					if !inS[i] {
						superset = false
						break
					}
				}
				if !superset {
					continue
				}
				prod := 1.0
				for i := 0; i < d; i++ {
					if !inS[i] {
						prod *= float64(ms.dims[i])
					}
				}
				lambda += prod
			}
			m := 1.0
			for _, i := range T {
				m *= float64(ms.dims[i] - 1)
			}
			if m > 0 && lambda > 0 {
				all = append(all, eig{lambda, m})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v > all[j].v })
	for _, e := range all {
		vals = append(vals, e.v)
		mult = append(mult, e.m)
	}
	return vals, mult
}

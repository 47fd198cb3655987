package mat

import (
	"fmt"
	"math"
	"unsafe"
)

// This file is the in-place/workspace kernel layer: every allocating
// arithmetic function in arith.go has a *To counterpart here that writes
// into a caller-supplied destination, so hot loops (the ALM of
// internal/core, the inner solvers of internal/optimize) can reuse a
// fixed set of buffers across thousands of iterations instead of leaving
// a fresh Dense behind on every call.
//
// Conventions:
//   - dst must already have the exact result shape; a mismatch panics
//     (silent reshaping would hide bugs in fixed-shape loops).
//   - Pure element-wise kernels (AddTo, SubTo, ScaleTo, AddScaledTo,
//     ElemMulTo) allow dst to alias either operand.
//   - Kernels that read operands while accumulating into dst (MulTo,
//     MulABtTo, MulAtBTo, GramTo, GramTTo, TransposeTo) panic when dst
//     shares storage with an operand: with the parallel row scheduler an
//     aliased product would silently corrupt the operand mid-multiply.
//   - Every *To kernel returns dst for call chaining.

// sharesStorage reports whether two matrices' backing slices overlap.
// Comparing address ranges (not just first elements) also catches
// offset views built with NewFromData or Reuse over a sub-slice of
// another matrix's storage.
func sharesStorage(a, b *Dense) bool {
	if a == b {
		return true
	}
	if len(a.data) == 0 || len(b.data) == 0 {
		return false
	}
	const w = unsafe.Sizeof(float64(0))
	a0 := uintptr(unsafe.Pointer(&a.data[0]))
	b0 := uintptr(unsafe.Pointer(&b.data[0]))
	return a0 < b0+uintptr(len(b.data))*w && b0 < a0+uintptr(len(a.data))*w
}

// noAlias panics when dst shares storage with the operand m.
func noAlias(op string, dst, m *Dense) {
	if sharesStorage(dst, m) {
		panic(fmt.Sprintf("mat: %s destination aliases an operand", op))
	}
}

// checkShape panics unless dst is exactly r×c.
func checkShape(op string, dst *Dense, r, c int) {
	if dst.rows != r || dst.cols != c {
		panic(fmt.Sprintf("mat: %s destination is %d×%d, need %d×%d", op, dst.rows, dst.cols, r, c))
	}
}

// AddTo stores a + b into dst. dst may alias a or b.
func AddTo(dst, a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("AddTo", a, b)
	}
	checkShape("AddTo", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = v + b.data[i]
	}
	return dst
}

// SubTo stores a - b into dst. dst may alias a or b.
func SubTo(dst, a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("SubTo", a, b)
	}
	checkShape("SubTo", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = v - b.data[i]
	}
	return dst
}

// ScaleTo stores s * a into dst. dst may alias a.
func ScaleTo(dst *Dense, s float64, a *Dense) *Dense {
	checkShape("ScaleTo", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = s * v
	}
	return dst
}

// AddScaledTo stores a + s*b (the matrix axpy) into dst. dst may alias
// a or b.
func AddScaledTo(dst, a *Dense, s float64, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("AddScaledTo", a, b)
	}
	checkShape("AddScaledTo", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = v + s*b.data[i]
	}
	return dst
}

// ElemMulTo stores the Hadamard product a ∘ b into dst. dst may alias
// a or b.
func ElemMulTo(dst, a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("ElemMulTo", a, b)
	}
	checkShape("ElemMulTo", dst, a.rows, a.cols)
	for i, v := range a.data {
		dst.data[i] = v * b.data[i]
	}
	return dst
}

// TransposeTo stores aᵀ into dst. dst must not alias a.
func TransposeTo(dst, a *Dense) *Dense {
	checkShape("TransposeTo", dst, a.cols, a.rows)
	noAlias("TransposeTo", dst, a)
	for i := 0; i < a.rows; i++ {
		row := a.RawRow(i)
		for j, v := range row {
			dst.data[j*a.rows+i] = v
		}
	}
	return dst
}

// MulTo stores the product a·b into dst. dst must not alias a or b: the
// kernel accumulates into dst row-by-row (in parallel for large
// products), so an aliased destination would corrupt its own operands.
func MulTo(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		dimPanic("MulTo", a, b)
	}
	checkShape("MulTo", dst, a.rows, b.cols)
	noAlias("MulTo", dst, a)
	noAlias("MulTo", dst, b)
	mulInto(dst, a, b)
	return dst
}

// MulEpiTo stores the product a·b into dst, like MulTo, and runs epi
// (when non-nil) once per scheduler tile as soon as that tile's output
// rectangle is complete, while the block is still cache-hot, instead of
// the caller making a second sweep over dst afterwards. Across the
// product the epilogue observes every element of dst exactly once (the
// tile grid partitions the output); it may run concurrently for disjoint
// rectangles and on any goroutine, so it must not assume order. An
// epilogue that applies a per-element update whose value does not depend
// on tile order (adding a precomputed noise matrix, scaling) keeps the
// result bit-identical across worker counts. This is how
// core.Mechanism.AnswerMany fuses its Laplace-noise pass into the GEMM
// that produces the intermediate.
//
// A single-column b runs as MulVecTo instead of a GEMM panel padded to
// eight columns, so a one-column product is bitwise the mat-vec the
// single-vector answer paths compute; the epilogue then runs once over
// the whole m×1 result and still counts as one fused product. Wider
// products run the tier's GEMM kernel, so column j equals MulVecTo of
// b's column j to within floating-point rounding.
//
// dst must not alias a or b, and must already be a.Rows()×b.Cols().
func MulEpiTo(dst, a, b *Dense, epi TileEpilogue) *Dense {
	if a.cols != b.rows {
		dimPanic("MulEpiTo", a, b)
	}
	checkShape("MulEpiTo", dst, a.rows, b.cols)
	noAlias("MulEpiTo", dst, a)
	noAlias("MulEpiTo", dst, b)
	if b.cols == 1 {
		MulVecTo(dst.data, a, b.data)
		if epi != nil {
			fusedEpilogueRuns.Add(1)
			if a.rows > 0 {
				epi(0, a.rows, 0, 1)
			}
		}
		return dst
	}
	gemmMain(dst, a.rows, b.cols, a.cols,
		aView{data: a.data, row: a.cols, k: 1},
		b.data, b.cols, 1, false, epi)
	return dst
}

// MulABtTo stores a·bᵀ into dst without materializing the transpose.
// dst must not alias a or b.
func MulABtTo(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		dimPanic("MulABtTo", a, b)
	}
	checkShape("MulABtTo", dst, a.rows, b.rows)
	noAlias("MulABtTo", dst, a)
	noAlias("MulABtTo", dst, b)
	mulABtInto(dst, a, b)
	return dst
}

// MulAtBTo stores aᵀ·b into dst without materializing the transpose.
// dst must not alias a or b.
func MulAtBTo(dst, a, b *Dense) *Dense {
	if a.rows != b.rows {
		dimPanic("MulAtBTo", a, b)
	}
	checkShape("MulAtBTo", dst, a.cols, b.cols)
	noAlias("MulAtBTo", dst, a)
	noAlias("MulAtBTo", dst, b)
	mulAtBInto(dst, a, b)
	return dst
}

// GramTo stores aᵀ·a into dst. dst must not alias a.
func GramTo(dst, a *Dense) *Dense {
	checkShape("GramTo", dst, a.cols, a.cols)
	noAlias("GramTo", dst, a)
	gramInto(dst, a)
	return dst
}

// GramTTo stores a·aᵀ into dst. dst must not alias a.
func GramTTo(dst, a *Dense) *Dense {
	checkShape("GramTTo", dst, a.rows, a.rows)
	noAlias("GramTTo", dst, a)
	gramTInto(dst, a)
	return dst
}

// MulVecTo stores the matrix-vector product a·x into dst (length
// a.Rows()). dst must not alias x. Large products are row-partitioned
// across the persistent pool; each element is a single dot product in
// ascending column order either way, so results are identical across
// dispatch paths.
func MulVecTo(dst []float64, a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch %d×%d vs %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.rows {
		panic(fmt.Sprintf("mat: MulVecTo destination length %d, need %d", len(dst), a.rows))
	}
	if serialWork(a.rows * a.cols) {
		mulVecRows(dst, a, x, 0, a.rows)
		return dst
	}
	const chunk = 128
	tiles := (a.rows + chunk - 1) / chunk
	forEachTile(tiles, func(t int) {
		lo := t * chunk
		mulVecRows(dst, a, x, lo, min(lo+chunk, a.rows))
	})
	return dst
}

// mulVecRows computes rows [lo,hi) of a·x into dst.
func mulVecRows(dst []float64, a *Dense, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a.RawRow(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecTTo stores aᵀ·x into dst (length a.Cols()). dst must not alias x.
func MulVecTTo(dst []float64, a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulVecTTo dimension mismatch %d×%d vs %d", a.rows, a.cols, len(x)))
	}
	if len(dst) != a.cols {
		panic(fmt.Sprintf("mat: MulVecTTo destination length %d, need %d", len(dst), a.cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < a.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.RawRow(i)
		for j, v := range row {
			dst[j] += xi * v
		}
	}
	return dst
}

// FrobeniusDist returns ‖a − b‖_F without materializing the difference.
func FrobeniusDist(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("FrobeniusDist", a, b)
	}
	var s float64
	for i, v := range a.data {
		d := v - b.data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

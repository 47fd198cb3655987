package mat

import (
	"fmt"
)

// dimPanic reports a dimension mismatch in op between a and b.
func dimPanic(op string, a, b *Dense) {
	panic(fmt.Sprintf("mat: %s dimension mismatch %d×%d vs %d×%d", op, a.rows, a.cols, b.rows, b.cols))
}

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("Add", a, b)
	}
	return AddTo(New(a.rows, a.cols), a, b)
}

// Sub returns a - b.
func Sub(a, b *Dense) *Dense {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("Sub", a, b)
	}
	return SubTo(New(a.rows, a.cols), a, b)
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	return ScaleTo(New(a.rows, a.cols), s, a)
}

// Mul returns the matrix product a·b.
//
// Products funnel through the cache-blocked packed GEMM in gemm.go: the
// right operand is packed into column panels once per product and output
// tiles are computed by a register-blocked micro-kernel, in parallel on
// the package's persistent worker pool when the product is large enough
// (see pool.go).
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		dimPanic("Mul", a, b)
	}
	out := New(a.rows, b.cols)
	mulInto(out, a, b)
	return out
}

// mulInto overwrites out with a·b. Small serial products read b in
// place (gemmDirect); the rest pack it.
func mulInto(out, a, b *Dense) {
	av := aView{data: a.data, row: a.cols, k: 1}
	if gemmDirect(out, a.rows, b.cols, a.cols, av, b.data) {
		return
	}
	gemmMain(out, a.rows, b.cols, a.cols, av, b.data, b.cols, 1, false, nil)
}

// MulABt returns a·bᵀ without materializing the transpose.
func MulABt(a, b *Dense) *Dense {
	if a.cols != b.cols {
		dimPanic("MulABt", a, b)
	}
	out := New(a.rows, b.rows)
	mulABtInto(out, a, b)
	return out
}

// mulABtInto overwrites out with a·bᵀ. The transposed right operand
// packs in place (swapped pack strides), so no transpose is materialized.
func mulABtInto(out, a, b *Dense) {
	gemmMain(out, a.rows, b.rows, a.cols,
		aView{data: a.data, row: a.cols, k: 1},
		b.data, 1, b.cols, false, nil)
}

// MulAtB returns aᵀ·b without materializing the transpose.
func MulAtB(a, b *Dense) *Dense {
	if a.rows != b.rows {
		dimPanic("MulAtB", a, b)
	}
	out := New(a.cols, b.cols)
	mulAtBInto(out, a, b)
	return out
}

// mulAtBInto overwrites out with aᵀ·b: the left operand is walked
// through a transposed view (row stride 1, k stride a.cols), which the
// micro-kernels support natively. Small serial products read b in place
// (gemmDirect); the rest pack it.
func mulAtBInto(out, a, b *Dense) {
	av := aView{data: a.data, row: 1, k: a.cols}
	if gemmDirect(out, a.cols, b.cols, a.rows, av, b.data) {
		return
	}
	gemmMain(out, a.cols, b.cols, a.rows, av, b.data, b.cols, 1, false, nil)
}

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Sprintf("mat: MulVec dimension mismatch %d×%d vs %d", a.rows, a.cols, len(x)))
	}
	return MulVecTo(make([]float64, a.rows), a, x)
}

// MulVecT returns aᵀ·x.
func MulVecT(a *Dense, x []float64) []float64 {
	if a.rows != len(x) {
		panic(fmt.Sprintf("mat: MulVecT dimension mismatch %d×%d vs %d", a.rows, a.cols, len(x)))
	}
	return MulVecTTo(make([]float64, a.cols), a, x)
}

// Gram returns aᵀ·a, exploiting the symmetry of the result.
func Gram(a *Dense) *Dense {
	out := New(a.cols, a.cols)
	gramInto(out, a)
	return out
}

// gramInto overwrites out with aᵀ·a: only tiles touching the upper
// triangle are computed, then mirrored.
func gramInto(out, a *Dense) {
	gemmMain(out, a.cols, a.cols, a.rows,
		aView{data: a.data, row: 1, k: a.cols},
		a.data, a.cols, 1, true, nil)
	mirrorLower(out)
}

// gramTInto overwrites out with a·aᵀ. Tiles strictly below the diagonal
// are skipped and the rest are clipped to the triangle; the pool's
// dynamic tile claiming balances the remaining triangular grid (the old
// contiguous row partition gave the first worker ~2× the flops of the
// last, since row i costs (rows−i) dot products).
func gramTInto(out, a *Dense) {
	gemmMain(out, a.rows, a.rows, a.cols,
		aView{data: a.data, row: a.cols, k: 1},
		a.data, 1, a.cols, true, nil)
	mirrorLower(out)
}

// Dot returns the Frobenius inner product ⟨a,b⟩ = Σᵢⱼ aᵢⱼ·bᵢⱼ.
func Dot(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		dimPanic("Dot", a, b)
	}
	var s float64
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s
}
